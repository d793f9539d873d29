"""The ``serve`` and ``drive`` command-line verbs.

Reachable both directly and through the experiment runner::

    python -m repro.experiments.runner serve --links 16 --shards 4
    python -m repro.experiments.runner drive --links 4 --shards 2 \\
        --requests 25000 --rho 0.6 --rho 0.9 --rho 0.99 --jobs 2

``serve`` starts the asyncio admission frontend
(:mod:`repro.service.frontend`): newline-delimited JSON over TCP,
links placed on shards by consistent hashing, every shard loading
its decision tables from one immutable snapshot text.  ``drive``
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
(``kind: latency_vs_rho``, the shape of the ``obs sweep --out`` report);
``--timings`` appends a schema-2 row to ``timings.jsonl`` so the
sweep's throughput rides the existing ``obs compare`` perf gate.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro.exceptions import ParameterError
from repro.service import cli as service_cli
from repro.service.drive import DriveReport, drive
from repro.service.frontend import AdmissionFrontend, FrontendServer

__all__ = ["build_parser", "format_drive_report", "main"]

DEFAULT_RHO_GRID = (0.6, 0.8, 0.9, 0.95, 0.99)


def _add_shared_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags both verbs share: the operating point, shards and engine."""
    service_cli.add_link_arguments(parser, links=4)
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="consistent-hash shards (serve: default 1; drive: "
        "default --jobs)",
    )
    service_cli.add_engine_arguments(parser)


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
    service_cli.add_rho_argument(drive_parser, grid=DEFAULT_RHO_GRID)
    service_cli.add_run_arguments(drive_parser, requests=10_000)
    service_cli.add_holding_law_arguments(drive_parser)
    service_cli.add_regime_plan_argument(drive_parser)
    drive_parser.add_argument(
        "--report-out",
        metavar="FILE",
        default=None,
        help="write the latency-vs-rho report as JSON to FILE",
    )
    service_cli.add_timings_argument(drive_parser)
    drive_parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of the table",
    )
    return parser


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
    with service_cli.usage_errors(parser):
        if not 0 <= args.port <= 65535:
            raise ParameterError(
                f"--port must be in 0-65535, got {args.port}"
            )
        classes, capacity, qos = service_cli.operating_point(args)
        overload = service_cli.build_overload(args)
        try:
            with AdmissionFrontend(
                classes,
                [f"link-{i}" for i in range(args.links)],
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
    return 0


def _cmd_drive(args, parser) -> int:
    with service_cli.usage_errors(parser):
        classes, capacity, qos = service_cli.operating_point(args)
        regime_plan = None
        regime_classes = None
        if args.regime_plan is not None:
            from repro.adaptive.nonstationary import parse_regime_plan

            regime_plan = parse_regime_plan(args.regime_plan)
            regime_classes = service_cli.regime_candidates(
                classes, regime_plan
            )
        report = drive(
            classes,
            n_links=args.links,
            capacity=capacity,
            qos=qos,
            policy=args.policy,
            rho_grid=service_cli.rho_grid(args, DEFAULT_RHO_GRID),
            requests_per_link=args.requests,
            mean_holding_time=args.holding_mean,
            holding="heavy-tailed" if args.heavy_tailed else "exponential",
            tail_gamma=args.tail_gamma,
            n_shards=args.shards,
            seed=args.seed,
            jobs=args.jobs if args.jobs > 1 else None,
            overload=service_cli.build_overload(args),
            table_path=args.table_cache,
            regime_plan=regime_plan,
            regime_classes=regime_classes,
        )

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
        service_cli.append_timings(
            args.timings,
            experiment="frontend_drive",
            scale=(
                f"links{report.n_links}x{report.requests_per_link}"
                f"@{len(report.points)}rho"
            ),
            jobs=report.jobs,
            walls=[p.wall_seconds for p in report.points],
            requests=report.n_requests,
            shards=report.n_shards,
            boundary_violations=report.boundary_violations,
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with service_cli.usage_errors(parser):
        service_cli.check_counts(args)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    return _cmd_drive(args, parser)


if __name__ == "__main__":
    sys.exit(main())
