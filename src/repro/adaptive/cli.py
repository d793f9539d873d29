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
from repro.service import cli as service_cli
from repro.service.tables import DecisionTableCache
from repro.service.workload import WorkloadSpec

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-adapt",
        description=(
            "Replay a nonstationary workload with online drift "
            "detection and hot-swapped decision tables"
        ),
    )
    service_cli.add_run_arguments(parser, requests=20_000)
    service_cli.add_link_arguments(parser, links=1, default_class="conference")
    service_cli.add_regime_plan_argument(parser)
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
    service_cli.add_replay_arguments(parser, load_factor=0.3)
    parser.add_argument(
        "--clr-out",
        metavar="FILE",
        default=None,
        help="write the pooled CLR-vs-time trajectory as CSV to FILE",
    )
    service_cli.add_timings_argument(parser)
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with service_cli.usage_errors(parser):
        service_cli.check_counts(args)
        declared, capacity, qos = service_cli.operating_point(
            args, default_class="conference"
        )
        plan = parse_regime_plan(
            args.regime_plan
            if args.regime_plan is not None
            else f"{declared[0].name}@0",
            diurnal_amplitude=args.diurnal_amplitude,
            diurnal_period=args.diurnal_period,
            variance_ramp=args.variance_ramp,
        )
        candidates = service_cli.regime_candidates(declared, plan)

    if args.trace:
        obs.enable()
        obs.reset()

    with service_cli.usage_errors(parser):
        # The declared boundary pins the default offered load: 0.3x
        # the admissible N of the declared class — comfortably
        # underloaded for the declared traffic, so any post-switch CLR
        # violation is attributable to the model mismatch, not to raw
        # overload.
        boundary = DecisionTableCache().lookup(
            declared[0].model, capacity, qos, args.policy
        )
        spec = WorkloadSpec(
            n_requests=args.requests,
            arrival_rate=service_cli.offered_arrival_rate(
                args, boundary.admissible, load_factor=0.3
            ),
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
        service_cli.append_timings(
            args.timings,
            experiment="adaptive_replay",
            scale=(
                f"links{summary.n_links}x"
                f"{summary.n_requests // max(summary.n_links, 1)}"
            ),
            jobs=args.jobs,
            walls=[wall],
            requests=summary.n_requests,
            drift_detections=summary.drift_detections,
            table_swaps=summary.swaps,
            boundary_violations=summary.boundary_violations,
            final_clr=summary.final_clr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
