"""The ``workload`` command-line verb, and the flags every service verb shares.

Reachable both directly and through the experiment runner::

    python -m repro.service.cli --requests 100000 --links 4 --jobs 2
    python -m repro.experiments.runner workload --requests 100000 \\
        --links 4 --policy bahadur-rao --jobs 2

Replays a synthetic connection workload against the admission engine
and prints the measured blocking/utilization report.  The offered
load defaults to 1.2x the admissible-N boundary of the first class —
deliberately overloaded, so the admission boundary is exercised —
and can be pinned with ``--erlangs`` or ``--arrival-rate``.

``--summary-out FILE`` writes the canonical JSON summary; the same
seed produces byte-identical files for any ``--jobs`` value (CI
asserts this).  ``--table-cache FILE`` persists computed decision
tables as JSONL, warming later runs.

Fault tolerance (``docs/ROBUSTNESS.md``): ``--supervise`` restarts
crashed/hung link shards, ``--journal-dir DIR`` journals every
decision so a restarted shard recovers its exact state — with both, a
run that crashes mid-flight still emits a summary byte-identical to a
fault-free one (CI's chaos smoke asserts this).  The ``--chaos-*``
flags inject deterministic faults at ``(link, attempt, request)``
addresses to prove it.  ``--max-queue``/``--decision-rate`` bound the
admission path under overload (deterministic shedding plus a circuit
breaker falling back to the conservative peak-rate policy).

The flags ``workload``, ``serve``/``drive`` and ``adapt`` share are
declared once, by the ``add_*`` helpers below (each verb passes its
own defaults), and what they configure is built once, by the
functions after them; a ReproError they raise becomes a usage error
(exit 2) under :func:`usage_errors`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError, ReproError
from repro.resilience.faults import ServiceFaultPlan
from repro.service.overload import OverloadPolicy
from repro.service.replay import replay_workload
from repro.service.stats import format_summary, write_summary
from repro.service.supervision import SupervisionPolicy
from repro.service.tables import SERVICE_METHODS, DecisionTableCache
from repro.service.workload import ConnectionClass, WorkloadSpec
from repro.utils.units import mbps_to_cells_per_frame

__all__ = [
    "CLASS_PRESETS",
    "add_engine_arguments",
    "add_holding_law_arguments",
    "add_link_arguments",
    "add_regime_plan_argument",
    "add_replay_arguments",
    "add_rho_argument",
    "add_run_arguments",
    "add_timings_argument",
    "append_timings",
    "build_class",
    "build_overload",
    "build_parser",
    "check_counts",
    "main",
    "offered_arrival_rate",
    "operating_point",
    "regime_candidates",
    "rho_grid",
    "usage_errors",
]


def _parse_chaos(values, n_fields, flag, parser):
    """Parse repeatable ``L:A:...`` chaos addresses into a dict."""
    plan = {}
    for text in values or ():
        parts = text.split(":")
        if len(parts) != n_fields:
            parser.error(
                f"{flag} expects {n_fields} colon-separated fields, "
                f"got {text!r}"
            )
        try:
            numbers = [float(p) for p in parts]
        except ValueError:
            parser.error(f"{flag}: non-numeric field in {text!r}")
        key = (int(numbers[0]), int(numbers[1]))
        plan[key] = numbers[2:]
    return plan

#: Named traffic-class presets for the CLI (built lazily — model
#: construction is not free and only requested classes should pay).
CLASS_PRESETS = {
    "video": "the paper's LRD composite Z^0.975 (H = 0.9)",
    "dar1": "DAR(1) Markov fit of Z^0.975",
    "dar3": "DAR(3) Markov fit of Z^0.975",
    "conference": "small SRD videoconference source (AR(1))",
}


def build_class(spec: str) -> ConnectionClass:
    """Parse one ``--class name[:weight]`` preset occurrence."""
    name, _, weight_text = spec.partition(":")
    if name not in CLASS_PRESETS:
        raise argparse.ArgumentTypeError(
            f"unknown class {name!r}; choose from "
            f"{', '.join(sorted(CLASS_PRESETS))}"
        )
    weight = 1.0
    if weight_text:
        try:
            weight = float(weight_text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"class weight must be a number, got {weight_text!r}"
            ) from None
    from repro.models import AR1Model, make_s, make_z

    model = {
        "video": lambda: make_z(0.975),
        "dar1": lambda: make_s(1, 0.975),
        "dar3": lambda: make_s(3, 0.975),
        "conference": lambda: AR1Model(0.6, 100.0, 400.0),
    }[name]()
    return ConnectionClass(name=name, model=model, weight=weight)


# -- the shared flags ---------------------------------------------------------


def add_link_arguments(
    parser: argparse.ArgumentParser,
    *,
    links: int,
    default_class: str = "video",
) -> None:
    """The operating point: links, classes, policy, capacity and QoS."""
    parser.add_argument(
        "--links",
        type=int,
        default=links,
        metavar="L",
        help=f"independent links (default {links})",
    )
    parser.add_argument(
        "--class",
        dest="classes",
        action="append",
        type=build_class,
        metavar="NAME[:WEIGHT]",
        help="offered (declared) class (repeatable); presets: "
        + ", ".join(f"{k} = {v}" for k, v in sorted(CLASS_PRESETS.items()))
        + f" (default: {default_class})",
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


def add_run_arguments(
    parser: argparse.ArgumentParser, *, requests: int
) -> None:
    """The run: requests per link, workers, seed, mean holding time."""
    parser.add_argument(
        "--requests",
        type=int,
        default=requests,
        metavar="N",
        help=f"connection requests per link (per rho point in a sweep; "
        f"default {requests})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run links (or shards) across N worker processes; the "
        "decision counters are bit-identical to --jobs 1 (default 1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=20260806,
        metavar="S",
        help="workload seed; per-link streams are SeedSequence children",
    )
    parser.add_argument(
        "--holding-mean",
        type=float,
        default=90.0,
        metavar="SECONDS",
        help="mean connection holding time (default 90 s)",
    )


def add_holding_law_arguments(parser: argparse.ArgumentParser) -> None:
    """The holding-time law: exponential, or heavy-tailed."""
    parser.add_argument(
        "--heavy-tailed",
        action="store_true",
        help="draw holding times from the heavy-tailed "
        "(exponential-body/Pareto-tail) session law instead of "
        "exponential",
    )
    parser.add_argument(
        "--tail-gamma",
        type=float,
        default=1.5,
        metavar="G",
        help="tail exponent for --heavy-tailed, in (1, 2) (default 1.5)",
    )


def add_replay_arguments(
    parser: argparse.ArgumentParser, *, load_factor: float
) -> None:
    """A replay's offered load (:func:`offered_arrival_rate`) and outputs."""
    parser.add_argument(
        "--erlangs",
        type=float,
        default=None,
        metavar="A",
        help=f"offered load in Erlangs per link (default: {load_factor}x "
        "the first class's admissible-N boundary)",
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="connection arrivals/second per link (overrides --erlangs)",
    )
    parser.add_argument(
        "--summary-out",
        metavar="FILE",
        default=None,
        help="write the canonical JSON summary to FILE (byte-identical "
        "across --jobs values)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect telemetry and print the span/metrics summary",
    )


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The decision-table cache file and the overload policy."""
    parser.add_argument(
        "--table-cache",
        metavar="FILE",
        default=None,
        help="persist decision tables as JSONL at FILE (warmed once "
        "before the run; workers load it read-only)",
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


def add_rho_argument(
    parser: argparse.ArgumentParser, *, grid: Sequence[float]
) -> None:
    """The utilization grid of a sweep (see :func:`rho_grid`)."""
    parser.add_argument(
        "--rho",
        action="append",
        type=float,
        metavar="R",
        help="utilization grid point; offered load is rho x admissible "
        "N Erlangs (repeatable; default "
        + " ".join(str(r) for r in grid)
        + ")",
    )


def add_regime_plan_argument(parser: argparse.ArgumentParser) -> None:
    """The nonstationary traffic schedule."""
    parser.add_argument(
        "--regime-plan",
        metavar="PLAN",
        default=None,
        help="true-traffic schedule 'name@start[xMULT],...' over the "
        "request index, e.g. conference@0,video@10000x1.5 (see "
        "repro.adaptive.nonstationary); MULT scales the arrival rate "
        "(default: stationary)",
    )


def add_timings_argument(parser: argparse.ArgumentParser) -> None:
    """The timings ledger row (see :func:`append_timings`)."""
    parser.add_argument(
        "--timings",
        metavar="FILE",
        default=None,
        help="append a schema-2 throughput row to this timings.jsonl "
        "(rides the obs compare perf gate)",
    )


# -- what the shared flags configure ------------------------------------------


@contextmanager
def usage_errors(parser: argparse.ArgumentParser) -> Iterator[None]:
    """Report a ReproError raised in the block as a usage error (exit 2)."""
    try:
        yield
    except ReproError as exc:
        parser.error(str(exc))


def check_counts(args: argparse.Namespace) -> None:
    """The verb's ``--requests``/``--links``/``--jobs``/``--shards``, >= 1."""
    for flag in ("requests", "links", "jobs", "shards"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ParameterError(f"--{flag} must be >= 1, got {value}")


def operating_point(
    args: argparse.Namespace, *, default_class: str = "video"
) -> Tuple[List[ConnectionClass], float, QoSRequirement]:
    """The offered classes, link capacity (cells/frame) and QoS contract."""
    classes = args.classes or [build_class(default_class)]
    capacity = mbps_to_cells_per_frame(args.capacity_mbps)
    qos = QoSRequirement(
        max_delay_seconds=args.delay_ms / 1000.0, max_clr=args.clr
    )
    return classes, capacity, qos


def build_overload(args: argparse.Namespace) -> Optional[OverloadPolicy]:
    """The overload policy ``--max-queue`` arms (None without it)."""
    if args.max_queue is None:
        return None
    if args.decision_rate is not None and args.decision_rate <= 0:
        raise ParameterError("--decision-rate must be > 0")
    return OverloadPolicy(
        max_queue_depth=args.max_queue,
        decision_seconds=(
            1.0 / args.decision_rate
            if args.decision_rate is not None
            else 0.0
        ),
        breaker_cooldown=args.breaker_cooldown,
    )


def offered_arrival_rate(
    args: argparse.Namespace, admissible: int, *, load_factor: float
) -> float:
    """``--arrival-rate``, else the ``--erlangs`` load over the holding mean.

    ``--erlangs`` defaults to ``load_factor`` times the first class's
    admissible N.
    """
    if args.arrival_rate is not None:
        return args.arrival_rate
    erlangs = (
        args.erlangs
        if args.erlangs is not None
        else load_factor * max(admissible, 1)
    )
    return erlangs / args.holding_mean


def rho_grid(
    args: argparse.Namespace, default: Sequence[float]
) -> Tuple[float, ...]:
    """The ``--rho`` points (else ``default``), checked before any work."""
    grid = tuple(args.rho) if args.rho else tuple(default)
    for rho in grid:
        if rho <= 0:
            raise ParameterError(f"--rho must be > 0, got {rho}")
    return grid


def regime_candidates(
    classes: Sequence[ConnectionClass], plan
) -> Tuple[ConnectionClass, ...]:
    """``classes`` plus every preset the regime plan names beyond them.

    The added presets follow the plan's order, so the adaptive
    estimator breaks matching ties the same way on every run.
    """
    candidates = list(classes)
    known = {cls.name for cls in candidates}
    for regime in plan.regimes:
        if regime.class_name not in known:
            try:
                candidates.append(build_class(regime.class_name))
            except argparse.ArgumentTypeError as exc:
                raise ParameterError(str(exc)) from None
            known.add(regime.class_name)
    return tuple(candidates)


def append_timings(
    path: str,
    *,
    experiment: str,
    scale: str,
    jobs: int,
    walls: Sequence[float],
    requests: int,
    **extra,
) -> None:
    """Append one schema-2 row: one round per wall-clock in ``walls``."""
    total_wall = sum(walls)
    obs.timings.append_timing_row(
        path,
        {
            "experiment": experiment,
            "scale": scale,
            "jobs": jobs,
            "rounds": len(walls),
            "mean_s": total_wall / len(walls),
            "min_s": min(walls),
            "max_s": max(walls),
            "stddev_s": None,
            "requests": requests,
            "requests_per_s": requests / total_wall if total_wall else 0.0,
            **extra,
        },
    )
    print(f"[timings row appended to {path}]")


# -- the workload verb --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-workload",
        description=(
            "Replay a synthetic connection workload through the online "
            "admission-control engine"
        ),
    )
    add_link_arguments(parser, links=1)
    add_run_arguments(parser, requests=10_000)
    add_holding_law_arguments(parser)
    add_replay_arguments(parser, load_factor=1.2)
    add_engine_arguments(parser)
    fault = parser.add_argument_group(
        "fault tolerance (docs/ROBUSTNESS.md)"
    )
    fault.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="journal every decision under DIR (one checksummed JSONL "
        "per link attempt); restarted shards recover from it exactly",
    )
    fault.add_argument(
        "--snapshot-every",
        type=int,
        default=2000,
        metavar="N",
        help="journal a full state snapshot every N events "
        "(default 2000); bounds recovery replay length",
    )
    fault.add_argument(
        "--supervise",
        action="store_true",
        help="restart crashed/hung link shards instead of failing fast",
    )
    fault.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        metavar="N",
        help="extra attempts per shard under --supervise (default 2)",
    )
    fault.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="declare a shard hung after SECONDS wall-clock and restart "
        "it (process-pool backends only; default: no hang detection)",
    )
    fault.add_argument(
        "--heartbeat",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="supervisor poll interval while waiting on shard results "
        "(default 0.5 s)",
    )
    fault.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="base restart backoff, doubled per attempt (default 0: "
        "restart immediately — journal recovery is deterministic)",
    )
    chaos = parser.add_argument_group(
        "chaos injection (deterministic; requires --supervise)"
    )
    chaos.add_argument(
        "--chaos-crash",
        action="append",
        metavar="L:A:R",
        help="crash link L's attempt A before request R (repeatable)",
    )
    chaos.add_argument(
        "--chaos-hang",
        action="append",
        metavar="L:A:R:S",
        help="hang link L's attempt A for S seconds at request R",
    )
    chaos.add_argument(
        "--chaos-torn-write",
        action="append",
        metavar="L:A:E",
        help="tear the journal line for event E on link L attempt A "
        "(half-written, no newline), then crash",
    )
    chaos.add_argument(
        "--chaos-table-fault",
        action="append",
        metavar="L:A:R",
        help="fail the primary decision-table lookup for request R on "
        "link L attempt A (drives the breaker/fallback path)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with usage_errors(parser):
        check_counts(args)
        supervision = None
        if args.supervise:
            supervision = SupervisionPolicy(
                max_restarts=args.max_restarts,
                shard_timeout_seconds=args.shard_timeout,
                heartbeat_seconds=args.heartbeat,
                backoff_seconds=args.backoff,
            )
        overload = build_overload(args)
        classes, capacity, qos = operating_point(args)

    crash = _parse_chaos(args.chaos_crash, 3, "--chaos-crash", parser)
    hang = _parse_chaos(args.chaos_hang, 4, "--chaos-hang", parser)
    torn = _parse_chaos(
        args.chaos_torn_write, 3, "--chaos-torn-write", parser
    )
    table_fault_raw = _parse_chaos(
        args.chaos_table_fault, 3, "--chaos-table-fault", parser
    )
    any_chaos = crash or hang or torn or table_fault_raw
    if any_chaos and not args.supervise:
        parser.error("--chaos-* flags require --supervise")
    if (crash or torn) and args.journal_dir is None:
        parser.error(
            "--chaos-crash/--chaos-torn-write need --journal-dir so the "
            "restarted shard can recover"
        )
    if hang and args.shard_timeout is None:
        parser.error("--chaos-hang requires --shard-timeout")
    faults = None
    if any_chaos:
        # Repeated --chaos-table-fault flags for one (link, attempt)
        # merge into one request set.
        table_faults: dict = {}
        for raw in args.chaos_table_fault or ():
            link, attempt, request = (int(float(p)) for p in raw.split(":"))
            table_faults.setdefault((link, attempt), set()).add(request)
        faults = ServiceFaultPlan(
            crash_shard_at={k: int(v[0]) for k, v in crash.items()},
            hang_shard_at={k: (int(v[0]), v[1]) for k, v in hang.items()},
            torn_write_at={k: int(v[0]) for k, v in torn.items()},
            table_corrupt_at=table_faults,
        )

    if args.trace:
        obs.enable()
        obs.reset()

    with usage_errors(parser):
        # Warm the decision table for the first class once in the
        # parent: it pins the boundary the default offered load is
        # derived from, and (with --table-cache) seeds the file every
        # link then loads.
        tables = DecisionTableCache(path=args.table_cache)
        boundary = tables.lookup(
            classes[0].model, capacity, qos, args.policy
        )
        spec = WorkloadSpec(
            n_requests=args.requests,
            arrival_rate=offered_arrival_rate(
                args, boundary.admissible, load_factor=1.2
            ),
            mean_holding_time=args.holding_mean,
            holding="heavy-tailed" if args.heavy_tailed else "exponential",
            tail_gamma=args.tail_gamma,
        )
        summary = replay_workload(
            spec,
            classes,
            n_links=args.links,
            capacity=capacity,
            qos=qos,
            policy=args.policy,
            rng=args.seed,
            jobs=args.jobs,
            table_path=args.table_cache,
            journal_dir=args.journal_dir,
            snapshot_every=args.snapshot_every,
            supervision=supervision,
            overload=overload,
            faults=faults,
        )

    print(format_summary(summary))
    if args.trace:
        print()
        print(obs.format_summary())
    if args.summary_out is not None:
        path = write_summary(args.summary_out, summary)
        print(f"[wrote {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
