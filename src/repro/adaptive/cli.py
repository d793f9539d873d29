"""The ``adapt`` command-line verb.

Reachable both directly and through the experiment runner::

    python -m repro.adaptive.cli --requests 100000 --links 4 \\
        --regime-plan conference@0,video@50000 --jobs 2
    python -m repro.experiments.runner adapt --requests 100000 \\
        --regime-plan conference@0,video@50000 --recompute

Replays a seeded *nonstationary* workload (regime switches, diurnal
ramps — :mod:`repro.adaptive.nonstationary`) through the admission
engine with online drift detection and hot-swapped decision tables
(:mod:`repro.adaptive.recompute`), and reports the observed CLR
trajectory.  The headline experiment: with ``--no-recompute`` the
static table sized for the declared class violates the CLR target
after the regime switch; with ``--recompute`` (the default) the drift
detector fires, the affected entries are rebuilt off the hot path,
the table swaps exactly once per switch, and the target holds — with
zero dropped requests and zero boundary violations through the swap.

``--summary-out FILE`` writes the canonical JSON summary
(byte-identical across ``--jobs`` values; CI asserts this with
``cmp``).  ``--clr-out FILE`` writes the CLR-vs-time trajectory as
CSV (the CI artifact).  ``--timings FILE`` appends a schema-2 row to
the shared timings ledger.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import obs
from repro.adaptive.nonstationary import parse_regime_plan
from repro.adaptive.recompute import adaptive_replay
from repro.atm.qos import QoSRequirement
from repro.exceptions import ReproError
from repro.service.cli import CLASS_PRESETS, build_class
from repro.service.tables import SERVICE_METHODS, DecisionTableCache
from repro.service.workload import WorkloadSpec
from repro.utils.units import mbps_to_cells_per_frame

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-adapt",
        description=(
            "Replay a nonstationary workload with online drift "
            "detection and hot-swapped decision tables"
        ),
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=20_000,
        metavar="N",
        help="connection requests per link (default 20000)",
    )
    parser.add_argument(
        "--links",
        type=int,
        default=1,
        metavar="L",
        help="independent links to replay (default 1)",
    )
    parser.add_argument(
        "--policy",
        choices=SERVICE_METHODS,
        default="bahadur-rao",
        help="admission policy (default bahadur-rao)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard links across N worker processes; the summary is "
        "bit-identical to --jobs 1 (default 1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=20260806,
        metavar="S",
        help="workload seed; per-link streams are SeedSequence children",
    )
    parser.add_argument(
        "--class",
        dest="classes",
        action="append",
        type=build_class,
        metavar="NAME[:WEIGHT]",
        help="declared (signalled) class (repeatable); presets: "
        + ", ".join(sorted(CLASS_PRESETS))
        + " (default: conference)",
    )
    parser.add_argument(
        "--regime-plan",
        metavar="PLAN",
        default=None,
        help="true-traffic schedule as name@start[xMULT],... over the "
        "request index (default: the declared class, stationary); "
        "e.g. conference@0,video@10000x1.5",
    )
    parser.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.0,
        metavar="A",
        help="sinusoidal arrival-rate modulation amplitude in [0, 1) "
        "(default 0)",
    )
    parser.add_argument(
        "--diurnal-period",
        type=int,
        default=0,
        metavar="N",
        help="diurnal period in requests (required when amplitude > 0)",
    )
    parser.add_argument(
        "--variance-ramp",
        type=float,
        default=0.0,
        metavar="R",
        help="linear relative observation-std inflation across the "
        "stream (default 0)",
    )
    adaptation = parser.add_argument_group("adaptation")
    adaptation.add_argument(
        "--recompute",
        dest="recompute",
        action="store_true",
        default=True,
        help="rebuild and hot-swap decision tables on drift (default)",
    )
    adaptation.add_argument(
        "--no-recompute",
        dest="recompute",
        action="store_false",
        help="static tables: detect drift but never swap (the paper's "
        "offline-table baseline)",
    )
    adaptation.add_argument(
        "--drift-window",
        type=int,
        default=256,
        metavar="W",
        help="trailing observation window of the drift detector "
        "(default 256)",
    )
    adaptation.add_argument(
        "--drift-threshold",
        type=float,
        default=8.0,
        metavar="SIGMAS",
        help="windowed mean-shift threshold in standard errors "
        "(default 8)",
    )
    adaptation.add_argument(
        "--recompute-lag",
        type=int,
        default=64,
        metavar="N",
        help="requests between detection and the table swap — the "
        "deterministic stand-in for background recompute latency "
        "(default 64)",
    )
    adaptation.add_argument(
        "--buckets",
        type=int,
        default=20,
        metavar="B",
        help="CLR-trajectory buckets over the request index (default 20)",
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
        "--erlangs",
        type=float,
        default=None,
        metavar="A",
        help="offered load in Erlangs per link (default: 0.3x the "
        "declared class's admissible-N boundary)",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="connection arrivals/second per link (overrides --erlangs)",
    )
    parser.add_argument(
        "--holding-mean",
        type=float,
        default=90.0,
        metavar="SECONDS",
        help="mean connection holding time (default 90 s)",
    )
    parser.add_argument(
        "--summary-out",
        metavar="FILE",
        default=None,
        help="write the canonical JSON summary to FILE (byte-identical "
        "across --jobs values)",
    )
    parser.add_argument(
        "--clr-out",
        metavar="FILE",
        default=None,
        help="write the pooled CLR-vs-time trajectory as CSV to FILE",
    )
    parser.add_argument(
        "--timings",
        metavar="FILE",
        default=None,
        help="append a schema-2 timings row to FILE",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect telemetry and print the span/metrics summary",
    )
    return parser


def format_summary(summary) -> str:
    """Human-readable report of one adaptive replay."""
    lines = [
        f"adaptive replay: policy={summary.policy} "
        f"adapt={'on' if summary.adapt else 'off'} "
        f"plan={summary.plan}",
        f"  links={summary.n_links} requests={summary.n_requests} "
        f"admitted={summary.admitted} blocked={summary.blocked}",
        f"  drift detections={summary.drift_detections} "
        f"table swaps={summary.swaps}",
        f"  boundary violations={summary.boundary_violations} "
        f"dropped={summary.dropped}",
        f"  observed CLR: pre-switch={summary.pre_switch_clr:.3e} "
        f"post-switch={summary.post_switch_clr:.3e} "
        f"final={summary.final_clr:.3e}",
        f"  CLR target {summary.target_clr:.1e}: "
        + ("HELD" if summary.holds_target else "VIOLATED"),
    ]
    for stats in summary.links:
        lines.append(
            f"    link {stats.link_index}: boundary "
            f"{stats.initial_admissible} -> {stats.final_admissible}, "
            f"generation {stats.generation}, swap@"
            f"{stats.swap_request_index}, "
            f"blocking {stats.blocking_probability:.4f}"
        )
    return "\n".join(lines)


def _write_clr_csv(path: str, summary) -> str:
    """The pooled CLR trajectory as ``bucket,requests,mean_clr`` CSV."""
    total = 0
    counts = [0] * len(summary.clr_bucket_means)
    for stats in summary.links:
        for i, c in enumerate(stats.clr_bucket_counts):
            counts[i] += c
            total += c
    rows = ["bucket,requests,mean_clr"]
    for i, mean in enumerate(summary.clr_bucket_means):
        rows.append(f"{i},{counts[i]},{mean:.6e}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(rows) + "\n")
    return path


def _append_timing(path: str, summary, wall_seconds: float, jobs: int) -> None:
    from repro.obs.timings import append_timing_row

    record = {
        "experiment": "adaptive_replay",
        "scale": (
            f"links{summary.n_links}x"
            f"{summary.n_requests // max(summary.n_links, 1)}"
        ),
        "jobs": jobs,
        "rounds": 1,
        "mean_s": wall_seconds,
        "min_s": wall_seconds,
        "max_s": wall_seconds,
        "stddev_s": None,
        "requests": summary.n_requests,
        "requests_per_s": (
            summary.n_requests / wall_seconds if wall_seconds else 0.0
        ),
        "drift_detections": summary.drift_detections,
        "table_swaps": summary.swaps,
        "boundary_violations": summary.boundary_violations,
        "final_clr": summary.final_clr,
    }
    append_timing_row(path, record)
    print(f"[timings row appended to {path}]")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error(f"--requests must be >= 1, got {args.requests}")
    if args.links < 1:
        parser.error(f"--links must be >= 1, got {args.links}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    declared = args.classes or [build_class("conference")]
    capacity = mbps_to_cells_per_frame(args.capacity_mbps)
    qos = QoSRequirement(
        max_delay_seconds=args.delay_ms / 1000.0, max_clr=args.clr
    )

    try:
        plan = parse_regime_plan(
            args.regime_plan
            if args.regime_plan is not None
            else f"{declared[0].name}@0",
            diurnal_amplitude=args.diurnal_amplitude,
            diurnal_period=args.diurnal_period,
            variance_ramp=args.variance_ramp,
        )
    except ReproError as exc:
        parser.error(str(exc))

    # The candidate library the estimator matches against: the
    # declared classes plus every class the plan references.
    candidates = list(declared)
    known = {c.name for c in candidates}
    for regime in plan.regimes:
        if regime.class_name not in known:
            try:
                candidates.append(build_class(regime.class_name))
            except argparse.ArgumentTypeError as exc:
                parser.error(str(exc))
            known.add(regime.class_name)

    if args.trace:
        obs.enable()
        obs.reset()

    # The declared boundary pins the default offered load: 0.3x the
    # admissible N of the declared class — comfortably underloaded
    # for the declared traffic, so any post-switch CLR violation is
    # attributable to the model mismatch, not to raw overload.
    tables = DecisionTableCache()
    boundary = tables.lookup(declared[0].model, capacity, qos, args.policy)
    if args.arrival_rate is not None:
        arrival_rate = args.arrival_rate
    else:
        erlangs = (
            args.erlangs
            if args.erlangs is not None
            else 0.3 * max(boundary.admissible, 1)
        )
        arrival_rate = erlangs / args.holding_mean

    try:
        spec = WorkloadSpec(
            n_requests=args.requests,
            arrival_rate=arrival_rate,
            mean_holding_time=args.holding_mean,
        )
        started = time.perf_counter()
        summary = adaptive_replay(
            spec,
            declared,
            plan,
            candidates,
            n_links=args.links,
            capacity=capacity,
            qos=qos,
            policy=args.policy,
            rng=args.seed,
            adapt=args.recompute,
            drift_window=args.drift_window,
            drift_threshold=args.drift_threshold,
            recompute_lag=args.recompute_lag,
            n_buckets=args.buckets,
            jobs=args.jobs,
        )
        wall = time.perf_counter() - started
    except ReproError as exc:
        parser.error(str(exc))

    print(format_summary(summary))
    if args.trace:
        print()
        print(obs.format_summary())
    if args.summary_out is not None:
        with open(args.summary_out, "w", encoding="utf-8") as handle:
            handle.write(summary.to_json() + "\n")
        print(f"[wrote {args.summary_out}]")
    if args.clr_out is not None:
        print(f"[wrote {_write_clr_csv(args.clr_out, summary)}]")
    if args.timings is not None:
        _append_timing(args.timings, summary, wall, args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
