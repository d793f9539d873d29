"""The ``serve`` and ``drive`` command-line verbs.

Reachable both directly and through the experiment runner::

    python -m repro.experiments.runner serve --links 16 --shards 4
    python -m repro.experiments.runner drive --links 4 --shards 2 \\
        --requests 25000 --rho 0.6 --rho 0.9 --rho 0.99 --jobs 2

``serve`` starts the asyncio admission frontend
(:mod:`repro.service.frontend`): newline-delimited JSON over TCP,
links placed on shards by consistent hashing, decision tables
published once as an immutable shared-memory snapshot.  ``drive``
runs the open-loop rho-driven load generator
(:mod:`repro.service.drive`) against the same sharded data plane and
prints the latency-vs-rho table: for each rho the arrival rate is
``rho x admissible N / mean holding``, and the row reports
p50/p99/p999 admit latency from the merged
``service.admit_latency_ns`` sketches plus aggregate decisions/s.

``--max-queue``/``--decision-rate`` arm the PR-7 overload policy —
drive rho past 1 and the shed/breaker counters follow the documented
backpressure contract (``docs/ROBUSTNESS.md``) byte-for-byte.
``--report-out`` writes the machine-readable report
(``kind: latency_vs_rho``, same shape as ``obs sweep --json``);
``--timings`` appends a schema-2 row to ``timings.jsonl`` so the
sweep's throughput rides the existing ``obs compare`` perf gate.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro.atm.qos import QoSRequirement
from repro.exceptions import ReproError
from repro.service.cli import CLASS_PRESETS, build_class
from repro.service.drive import DriveReport, drive
from repro.service.frontend import AdmissionFrontend, FrontendServer
from repro.service.overload import OverloadPolicy
from repro.service.tables import SERVICE_METHODS
from repro.utils.units import mbps_to_cells_per_frame

__all__ = ["build_parser", "format_drive_report", "main"]

DEFAULT_RHO_GRID = (0.6, 0.8, 0.9, 0.95, 0.99)


def _add_shared_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags both verbs share, matching the ``workload`` conventions."""
    parser.add_argument(
        "--links",
        type=int,
        default=4,
        metavar="L",
        help="independent links the frontend serves (default 4)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="consistent-hash shards (serve: default 1; drive: "
        "default --jobs)",
    )
    parser.add_argument(
        "--class",
        dest="classes",
        action="append",
        type=build_class,
        metavar="NAME[:WEIGHT]",
        help="offered class (repeatable); presets: "
        + ", ".join(f"{k} = {v}" for k, v in sorted(CLASS_PRESETS.items()))
        + " (default: video)",
    )
    parser.add_argument(
        "--policy",
        choices=SERVICE_METHODS,
        default="bahadur-rao",
        help="admission policy (default bahadur-rao)",
    )
    parser.add_argument(
        "--capacity-mbps",
        type=float,
        default=155.52,
        metavar="MBPS",
        help="link rate in Mbit/s (default 155.52, OC-3)",
    )
    parser.add_argument(
        "--delay-ms",
        type=float,
        default=20.0,
        metavar="MS",
        help="per-node QoS delay budget (default 20 msec)",
    )
    parser.add_argument(
        "--clr",
        type=float,
        default=1e-6,
        metavar="P",
        help="QoS cell loss rate target (default 1e-6)",
    )
    parser.add_argument(
        "--table-cache",
        metavar="FILE",
        default=None,
        help="persist decision tables as JSONL at FILE (warmed before "
        "the snapshot is published)",
    )
    overload = parser.add_argument_group("overload policy")
    overload.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="DEPTH",
        help="bound each link's admission queue at DEPTH outstanding "
        "decisions; arrivals past the bound are shed deterministically",
    )
    overload.add_argument(
        "--decision-rate",
        type=float,
        default=None,
        metavar="PER_SEC",
        help="modelled decision service rate (decisions/second on the "
        "workload clock); required for --max-queue to ever shed",
    )
    overload.add_argument(
        "--breaker-cooldown",
        type=int,
        default=64,
        metavar="N",
        help="requests the circuit breaker stays open before probing "
        "the primary policy again (default 64)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-frontend",
        description="sharded admission frontend: serve it, or drive "
        "it open-loop over a rho grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve",
        help="start the asyncio admission frontend (line-JSON over TCP)",
    )
    _add_shared_arguments(serve)
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="listen address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="listen port (default 0: pick a free one and print it)",
    )

    drive_parser = sub.add_parser(
        "drive",
        help="open-loop rho sweep against the sharded frontend",
    )
    _add_shared_arguments(drive_parser)
    drive_parser.add_argument(
        "--rho",
        action="append",
        type=float,
        metavar="R",
        help="utilization grid point; offered load is rho x admissible "
        "N Erlangs (repeatable; default "
        + " ".join(str(r) for r in DEFAULT_RHO_GRID)
        + ")",
    )
    drive_parser.add_argument(
        "--requests",
        type=int,
        default=10_000,
        metavar="N",
        help="connection requests per link per rho point (default 10000)",
    )
    drive_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run shards across N worker processes; per-link counters "
        "are byte-identical to --jobs 1 (default 1)",
    )
    drive_parser.add_argument(
        "--seed",
        type=int,
        default=20260806,
        metavar="S",
        help="workload seed; per-link streams are SeedSequence children",
    )
    drive_parser.add_argument(
        "--holding-mean",
        type=float,
        default=90.0,
        metavar="SECONDS",
        help="mean connection holding time (default 90 s)",
    )
    drive_parser.add_argument(
        "--heavy-tailed",
        action="store_true",
        help="draw holding times from the heavy-tailed "
        "(exponential-body/Pareto-tail) session law instead of "
        "exponential",
    )
    drive_parser.add_argument(
        "--tail-gamma",
        type=float,
        default=1.5,
        metavar="G",
        help="tail exponent for --heavy-tailed, in (1, 2) (default 1.5)",
    )
    drive_parser.add_argument(
        "--regime-plan",
        metavar="PLAN",
        default=None,
        help="nonstationary regime schedule 'name@start[xMULT],...' "
        "(see repro.adaptive.nonstationary); the per-regime rate "
        "multiplier scales the rho-derived arrival rate",
    )
    drive_parser.add_argument(
        "--report-out",
        metavar="FILE",
        default=None,
        help="write the latency-vs-rho report as JSON to FILE",
    )
    drive_parser.add_argument(
        "--timings",
        metavar="FILE",
        default=None,
        help="append a schema-2 throughput row to this timings.jsonl "
        "(rides the obs compare perf gate)",
    )
    drive_parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of the table",
    )
    return parser


def _overload_from_args(args, parser) -> Optional[OverloadPolicy]:
    if args.max_queue is None:
        return None
    if args.decision_rate is not None and args.decision_rate <= 0:
        parser.error("--decision-rate must be > 0")
    return OverloadPolicy(
        max_queue_depth=args.max_queue,
        decision_seconds=(
            1.0 / args.decision_rate
            if args.decision_rate is not None
            else 0.0
        ),
        breaker_cooldown=args.breaker_cooldown,
    )


def _fmt_ns(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}ms"
    if value >= 1e3:
        return f"{value / 1e3:.1f}us"
    return f"{value:.0f}ns"


def format_drive_report(report: DriveReport) -> str:
    """The human latency-vs-rho table."""
    lines = [
        f"frontend drive: policy={report.policy} links={report.n_links} "
        f"shards={report.n_shards} jobs={report.jobs} "
        f"admissible N={report.admissible} "
        f"requests/link/point={report.requests_per_link}",
        f"{'rho':>6} {'erlangs':>9} {'requests':>9} {'admit':>8} "
        f"{'block':>7} {'shed':>7} {'p50':>9} {'p99':>9} {'p999':>9} "
        f"{'decisions/s':>12}",
    ]
    for point in report.points:
        q = point.admit_latency_ns
        lines.append(
            f"{point.rho:>6.3f} {point.offered_erlangs:>9.1f} "
            f"{point.n_requests:>9d} {point.admitted:>8d} "
            f"{point.blocked:>7d} {point.shed:>7d} "
            f"{_fmt_ns(q.get('p0.5')):>9} {_fmt_ns(q.get('p0.99')):>9} "
            f"{_fmt_ns(q.get('p0.999')):>9} "
            f"{point.decisions_per_second:>12,.0f}"
        )
    lines.append(
        f"boundary violations: {report.boundary_violations} "
        f"(must be 0)"
    )
    return "\n".join(lines)


def _append_drive_timing(path: str, report: DriveReport) -> None:
    from repro.obs.timings import append_timing_row

    walls = [p.wall_seconds for p in report.points]
    total_wall = sum(walls)
    record = {
        "experiment": "frontend_drive",
        "scale": (
            f"links{report.n_links}x{report.requests_per_link}"
            f"@{len(report.points)}rho"
        ),
        "jobs": report.jobs,
        "rounds": len(report.points),
        "mean_s": total_wall / len(walls),
        "min_s": min(walls),
        "max_s": max(walls),
        "stddev_s": None,
        "requests": report.n_requests,
        "requests_per_s": (
            report.n_requests / total_wall if total_wall else 0.0
        ),
        "shards": report.n_shards,
        "boundary_violations": report.boundary_violations,
    }
    append_timing_row(path, record)
    print(f"[timings row appended to {path}]")


async def _serve(frontend: AdmissionFrontend, host: str, port: int) -> None:
    server = FrontendServer(frontend, host=host, port=port)
    await server.start()
    print(
        f"frontend listening on {server.host}:{server.port} "
        f"({frontend.stats().n_links} links, "
        f"{frontend.stats().n_shards} shards); Ctrl-C stops",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def _cmd_serve(args, parser) -> int:
    classes = args.classes or [build_class("video")]
    capacity = mbps_to_cells_per_frame(args.capacity_mbps)
    qos = QoSRequirement(
        max_delay_seconds=args.delay_ms / 1000.0, max_clr=args.clr
    )
    overload = _overload_from_args(args, parser)
    link_ids = [f"link-{i}" for i in range(args.links)]
    try:
        with AdmissionFrontend(
            classes,
            link_ids,
            capacity=capacity,
            qos=qos,
            policy=args.policy,
            n_shards=args.shards if args.shards is not None else 1,
            overload=overload,
            table_path=args.table_cache,
        ) as frontend:
            asyncio.run(_serve(frontend, args.host, args.port))
    except KeyboardInterrupt:
        print("frontend stopped")
    except ReproError as exc:
        parser.error(str(exc))
    return 0


def _cmd_drive(args, parser) -> int:
    classes = args.classes or [build_class("video")]
    capacity = mbps_to_cells_per_frame(args.capacity_mbps)
    qos = QoSRequirement(
        max_delay_seconds=args.delay_ms / 1000.0, max_clr=args.clr
    )
    overload = _overload_from_args(args, parser)
    rho_grid = tuple(args.rho) if args.rho else DEFAULT_RHO_GRID
    regime_plan = None
    regime_classes = None
    if args.regime_plan is not None:
        from repro.adaptive.nonstationary import parse_regime_plan

        try:
            regime_plan = parse_regime_plan(args.regime_plan)
        except ReproError as exc:
            parser.error(str(exc))
        known = {cls.name for cls in classes}
        extra = sorted(
            {r.class_name for r in regime_plan.regimes} - known
        )
        regime_classes = tuple(classes) + tuple(
            build_class(name) for name in extra
        )
    try:
        report = drive(
            classes,
            n_links=args.links,
            capacity=capacity,
            qos=qos,
            policy=args.policy,
            rho_grid=rho_grid,
            requests_per_link=args.requests,
            mean_holding_time=args.holding_mean,
            holding="heavy-tailed" if args.heavy_tailed else "exponential",
            tail_gamma=args.tail_gamma,
            n_shards=args.shards,
            seed=args.seed,
            jobs=args.jobs if args.jobs > 1 else None,
            overload=overload,
            table_path=args.table_cache,
            regime_plan=regime_plan,
            regime_classes=regime_classes,
        )
    except ReproError as exc:
        parser.error(str(exc))

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_drive_report(report))
    if args.report_out is not None:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[report written to {args.report_out}]")
    if args.timings is not None:
        _append_drive_timing(args.timings, report)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.links < 1:
        parser.error(f"--links must be >= 1, got {args.links}")
    if args.shards is not None and args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.command == "serve":
        return _cmd_serve(args, parser)
    if getattr(args, "requests", 1) < 1:
        parser.error(f"--requests must be >= 1, got {args.requests}")
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    return _cmd_drive(args, parser)


if __name__ == "__main__":
    sys.exit(main())
