"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner table1 fig04 fig05
    python -m repro.experiments.runner --scale smoke all
    python -m repro.experiments.runner fig08 --scale smoke \\
        --trace --metrics-out /tmp/metrics
    python -m repro.experiments.runner all --keep-going \\
        --deadline 3600 --checkpoint-dir /tmp/ckpt
    python -m repro.experiments.runner workload --requests 100000 \\
        --links 4 --policy bahadur-rao --jobs 2

Prints each experiment's formatted tables to stdout.  With ``--trace``
(or ``REPRO_TRACE=1``) telemetry is collected and a span/metrics
summary follows each experiment; ``--metrics-out DIR`` additionally
writes one ``<experiment>.jsonl`` trace per experiment into DIR (see
``docs/OBSERVABILITY.md`` for the schema).

``--jobs N`` (or ``REPRO_JOBS=N``) fans the replicated simulations of
each experiment out across ``N`` worker processes — results are
bit-identical to serial runs on the same seed, only faster (see
``docs/PERFORMANCE.md``).  The default is 1 (serial); ``N > 1`` runs
on the shared persistent warm pool.  ``--batch`` overrides how many
replications each task carries, serial runs included.

Long batches are supervised by :mod:`repro.resilience` when any of
``--deadline`` / ``--max-retries`` / ``--checkpoint-dir`` is given:
failed replications retry on fresh RNG streams, completed ones
checkpoint for resume, and past the deadline results degrade to
partial pools (and remaining experiments are skipped) instead of
dying.  ``--keep-going`` continues past a failing experiment, prints
a pass/fail summary, and exits nonzero iff anything failed (see
``docs/ROBUSTNESS.md``).

The ``workload`` verb is not a paper experiment but the online
admission-control service: it replays a synthetic connection workload
through the CAC engine and reports measured blocking and utilization.
Its flags (``--requests``, ``--links``, ``--policy``, ``--jobs``, ...)
are documented in :mod:`repro.service.cli` and ``docs/SERVICE.md``.

The ``obs`` verb hosts the observability toolbox
(:mod:`repro.obs.cli`): ``obs report`` merges telemetry JSONL dumps,
``obs sweep`` runs the drive sweep one rho point at a time and prints
its latency-vs-rho table, ``obs slo`` judges exported metrics against
declarative SLO targets, and ``obs compare`` is the benchmark
perf-regression gate (see ``docs/OBSERVABILITY.md``).

The ``adapt`` verb (:mod:`repro.adaptive.cli`) replays a
nonstationary workload with drift detection and hot-swapped decision
tables (see ``docs/ADAPTIVE.md``).

The ``serve`` and ``drive`` verbs host the sharded admission frontend
(:mod:`repro.service.frontend_cli`): ``serve`` answers admit/release
requests over newline-delimited JSON, ``drive`` sweeps an open-loop
rho-driven workload against the same sharded data plane and prints
the p50/p99/p999 latency-vs-rho table (see ``docs/SERVICE.md``).
The service verbs declare the flags they have in common once, in
:mod:`repro.service.cli`.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro import obs
from repro.experiments.config import SCALES, get_scale
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.parallel.backends import Backend, resolve_backend
from repro.queueing.replication import set_default_batch
from repro.resilience.policy import ResiliencePolicy

#: The verbs that are not paper experiments, each with its own flags:
#: the module whose ``main`` runs the verb, and whether the verb name
#: stays in the argv handed to it (``serve`` and ``drive`` are
#: subcommands of one parser).
_VERBS = {
    "workload": ("repro.service.cli", False),
    "obs": ("repro.obs.cli", False),
    "adapt": ("repro.adaptive.cli", False),
    "serve": ("repro.service.frontend_cli", True),
    "drive": ("repro.service.frontend_cli", True),
}


def _resolve_jobs(
    parser: argparse.ArgumentParser, jobs: Optional[int]
) -> int:
    """The worker count: ``--jobs`` beats ``REPRO_JOBS``, default 1."""
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            parser.error(f"REPRO_JOBS must be an integer, got {raw!r}")
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _build_backend(jobs: int) -> Optional[Backend]:
    """None for serial; otherwise the shared warm pool."""
    if jobs <= 1:
        return None
    return resolve_backend(jobs=jobs)


def _build_policy(args: argparse.Namespace) -> Optional[ResiliencePolicy]:
    """A resilience policy when any supervision flag was given."""
    if (
        args.deadline is None
        and args.max_retries is None
        and args.checkpoint_dir is None
    ):
        return None
    return ResiliencePolicy(
        max_retries=2 if args.max_retries is None else args.max_retries,
        deadline_at=(
            None
            if args.deadline is None
            else time.monotonic() + args.deadline
        ),
        checkpoint_dir=args.checkpoint_dir,
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _VERBS:
        # A service verb parses its own flags; delegate before the
        # experiment parser can reject them.
        module, keep_verb = _VERBS[argv[0]]
        verb_main = importlib.import_module(module).main
        return verb_main(argv if keep_verb else argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce tables/figures of Ryu & Elwalid (SIGCOMM '96)",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(sorted(EXPERIMENTS))}), 'all', "
        f"or the {' / '.join(repr(verb) for verb in _VERBS)} verbs (own "
        "flags; see --help after them)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="simulation depth (default: $REPRO_SCALE or 'default')",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="render each panel as an ASCII chart after its table",
    )
    parser.add_argument(
        "--logx",
        action="store_true",
        help="use a log x-axis for --plot",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each panel as CSV into DIR",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="collect telemetry and print a span/metrics summary per "
        "experiment (also enabled by REPRO_TRACE=1)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="DIR",
        default=None,
        help="write per-experiment telemetry as DIR/<name>.jsonl "
        "(implies telemetry collection)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="continue past a failing experiment, print a pass/fail "
        "summary at the end, and exit nonzero iff any experiment failed",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock budget for the whole invocation: replicated "
        "simulations degrade to partial pooled estimates at the "
        "deadline, and experiments not yet started are skipped "
        "(skips count as failures for the exit code)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        metavar="N",
        default=None,
        help="per-replication retry budget under the resilience engine "
        "(default 2 when any supervision flag is given)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="checkpoint completed replications to DIR for resume "
        "(see docs/ROBUSTNESS.md for the file schema)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="run replicated simulations across N worker processes "
        "(default: $REPRO_JOBS or 1); results are bit-identical to "
        "serial runs (see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        metavar="R",
        default=None,
        help="replications per task on fail-fast runs at any --jobs "
        "(default: auto-sized from --jobs; 1 = one task per "
        "replication; ignored under resilience supervision)",
    )
    args = parser.parse_args(argv)

    names = list(args.experiments)
    if names == ["all"]:
        names = sorted(EXPERIMENTS)
    scale = get_scale(args.scale)

    for flag, directory in (
        ("--metrics-out", args.metrics_out),
        ("--checkpoint-dir", args.checkpoint_dir),
    ):
        if directory is not None:
            # Fail fast: a bad output path should not cost a simulation.
            try:
                Path(directory).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                parser.error(f"{flag} {directory}: {exc}")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.deadline is not None and args.deadline < 0:
        parser.error(f"--deadline must be >= 0, got {args.deadline}")
    if args.batch is not None and args.batch < 1:
        parser.error(f"--batch must be >= 1, got {args.batch}")

    policy = _build_policy(args)
    backend = _build_backend(_resolve_jobs(parser, args.jobs))
    set_default_batch(args.batch)

    # REPRO_TRACE=1 behaves exactly like --trace; --metrics-out collects
    # without printing the summary unless --trace is also given.
    trace = args.trace or obs.is_enabled()
    collect = trace or args.metrics_out is not None
    if collect:
        obs.enable()
    if trace:
        obs.progress.enable_progress()

    statuses: List[Tuple[str, str, str]] = []  # (name, verdict, detail)
    for name in names:
        if (
            policy is not None
            and policy.deadline_at is not None
            and time.monotonic() >= policy.deadline_at
        ):
            print(f"[{name} skipped: deadline exceeded]")
            statuses.append((name, "skipped", "deadline exceeded"))
            continue
        if collect:
            obs.reset()  # one clean trace per experiment
        started = time.perf_counter()
        try:
            with obs.span(f"runner.{name}", scale=scale.name) as root_span:
                result = run_experiment(
                    name, scale, policy=policy, backend=backend
                )
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            if not args.keep_going:
                raise
            detail = f"{type(exc).__name__}: {exc}"
            print(f"[{name} FAILED: {detail}]")
            print()
            statuses.append((name, "FAILED", detail))
            continue
        elapsed = (
            root_span.duration_ns * 1e-9
            if root_span.duration_ns is not None
            else time.perf_counter() - started
        )
        print(result.format())
        if args.plot:
            from repro.plotting import plot_panel

            for panel in result.panels:
                print()
                print(plot_panel(panel, logx=args.logx))
        if args.csv:
            from repro.experiments.export import export_result

            for path in export_result(result, args.csv):
                print(f"[wrote {path}]")
        if trace:
            print()
            print(obs.format_summary())
        if args.metrics_out is not None:
            out = obs.write_jsonl(
                Path(args.metrics_out) / f"{name}.jsonl", label=name
            )
            print(f"[wrote {out}]")
        print(f"[{name} completed in {elapsed:.1f}s]")
        print()
        statuses.append((name, "ok", f"{elapsed:.1f}s"))

    incomplete = [s for s in statuses if s[1] != "ok"]
    if args.keep_going or incomplete:
        print("experiment summary:")
        for name, verdict, detail in statuses:
            mark = "ok  " if verdict == "ok" else verdict
            print(f"  {name:<8} {mark}  ({detail})")
        failed = sum(1 for s in statuses if s[1] == "FAILED")
        skipped = sum(1 for s in statuses if s[1] == "skipped")
        print(
            f"  {len(statuses) - failed - skipped} ok, {failed} failed, "
            f"{skipped} skipped"
        )
    return 1 if incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
