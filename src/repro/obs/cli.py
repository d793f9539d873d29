"""The ``obs`` command-line verb: reports, gates, SLO checks.

Reachable both directly and through the experiment runner::

    python -m repro.experiments.runner obs report /tmp/metrics/fig08.jsonl
    python -m repro.experiments.runner obs compare \\
        benchmarks/results/timings.jsonl --jobs-scaling --threshold 5
    python -m repro.experiments.runner obs slo /tmp/metrics/run.jsonl

Three subcommands:

* ``report`` — merge one or more telemetry JSONL files (spans +
  metrics, sketches included) and render the human summary or
  canonical JSON;
* ``compare`` — diff two ``timings.jsonl`` runs (or check jobs>1
  rows against serial within one file) and exit nonzero on
  regressions beyond ``--threshold`` — the CI perf gate;
* ``slo`` — judge exported metrics against declarative SLO targets
  (``--spec FILE`` or the built-in service defaults), optionally as a
  burn-rate window between two cumulative snapshots.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.exceptions import ReproError
from repro.obs import export as _export
from repro.obs import slo as _slo
from repro.obs import timings as _timings
from repro.obs.metrics import MetricsRegistry

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Tail-latency observability: telemetry reports, "
            "SLO checks, perf-regression gates"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report",
        help="merge telemetry JSONL files and render the summary",
    )
    report.add_argument(
        "files", nargs="+", metavar="FILE", help="telemetry JSONL file(s)"
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit the merged metrics as canonical JSON instead of text",
    )

    compare = sub.add_parser(
        "compare",
        help="perf-regression gate over timings.jsonl runs",
    )
    compare.add_argument(
        "baseline", metavar="BASELINE", help="baseline timings.jsonl"
    )
    compare.add_argument(
        "current",
        nargs="?",
        metavar="CURRENT",
        default=None,
        help="current timings.jsonl (omit with --jobs-scaling)",
    )
    compare.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        metavar="R",
        help="tolerated slowdown ratio before a row is a regression "
        "(default 1.5)",
    )
    compare.add_argument(
        "--jobs-scaling",
        action="store_true",
        help="within-file check: jobs>1 rows vs the serial row of the "
        "same experiment (flags parallel rows slower than serial by "
        "more than --threshold)",
    )
    compare.add_argument(
        "--warn-only",
        action="store_true",
        help="print regressions but exit 0 (shared/noisy runners)",
    )
    compare.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )

    slo = sub.add_parser(
        "slo",
        help="judge exported metrics against declarative SLO targets",
    )
    slo.add_argument(
        "metrics", metavar="METRICS", help="telemetry JSONL file"
    )
    slo.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        help="JSON list of SLO targets (default: built-in service SLOs)",
    )
    slo.add_argument(
        "--window-start",
        metavar="FILE",
        default=None,
        help="earlier cumulative snapshot; evaluate the burn rate of "
        "the window between it and METRICS",
    )
    slo.add_argument(
        "--warn-only",
        action="store_true",
        help="print violations but exit 0",
    )
    slo.add_argument(
        "--json", action="store_true", help="emit results as JSON"
    )
    return parser


# -- report ------------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    span_records = []
    for path in args.files:
        dump = _export.read_jsonl(path)
        span_records.extend(dump.spans)
        registry.merge_snapshot(dump.metric_dicts())
    merged = registry.snapshot()
    if args.json:
        print(
            json.dumps(
                {"spans": len(span_records), "metrics": merged},
                sort_keys=True,
            )
        )
    else:
        print(_export.format_summary(span_records, merged))
    return 0


# -- compare -----------------------------------------------------------------


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.current is None and not args.jobs_scaling:
        raise ReproError(
            "obs compare needs either a CURRENT file (cross-file diff) "
            "or --jobs-scaling (within-file check)"
        )
    findings: List[_timings.RegressionFinding] = []
    if args.jobs_scaling:
        rows = _timings.load_timings(args.current or args.baseline)
        findings.extend(
            _timings.jobs_scaling_regressions(
                rows, threshold=args.threshold
            )
        )
    if args.current is not None and not args.jobs_scaling:
        findings.extend(
            _timings.compare_timings(
                _timings.load_timings(args.baseline),
                _timings.load_timings(args.current),
                threshold=args.threshold,
            )
        )
    regressions = [f for f in findings if f.regression]
    if args.json:
        print(
            json.dumps(
                {
                    "threshold": args.threshold,
                    "findings": [
                        {
                            "experiment": f.experiment,
                            "scale": f.scale,
                            "jobs": f.jobs,
                            "baseline_s": f.baseline_s,
                            "current_s": f.current_s,
                            "ratio": f.ratio,
                            "regression": f.regression,
                            "kind": f.kind,
                        }
                        for f in findings
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        if not findings:
            print("no comparable timing rows found")
        for finding in findings:
            print(finding.format())
        print(
            f"{len(findings)} comparison(s), {len(regressions)} "
            f"regression(s) beyond {args.threshold:.2f}x"
        )
    if regressions and not args.warn_only:
        return 1
    return 0


# -- slo ---------------------------------------------------------------------


def _cmd_slo(args: argparse.Namespace) -> int:
    targets = (
        list(_slo.DEFAULT_SERVICE_SLOS)
        if args.spec is None
        else _slo.load_slo_file(args.spec)
    )
    end = _export.read_jsonl(args.metrics).metric_dicts()
    if args.window_start is not None:
        start = _export.read_jsonl(args.window_start).metric_dicts()
        results = _slo.burn_rate(targets, start, end)
        mode = "window burn rate"
    else:
        results = _slo.evaluate(targets, end)
        mode = "cumulative"
    violated = [r for r in results if r.ok is False]
    if args.json:
        print(
            json.dumps(
                {
                    "mode": mode,
                    "results": [
                        {
                            "name": r.target.name,
                            "kind": r.target.kind,
                            "threshold": r.target.threshold,
                            "measured": r.measured,
                            "ok": r.ok,
                            "burn": r.burn,
                            "detail": r.detail,
                        }
                        for r in results
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        print(f"SLO evaluation ({mode}) — {args.metrics}")
        for result in results:
            print(f"  {result.format()}")
        print(
            f"{len(results)} target(s), {len(violated)} violated, "
            f"{sum(1 for r in results if r.ok is None)} without data"
        )
    if violated and not args.warn_only:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "report": _cmd_report,
        "compare": _cmd_compare,
        "slo": _cmd_slo,
    }[args.command]
    try:
        return handler(args)
    except (ReproError, OSError) as exc:
        parser.error(str(exc))
        return 2  # pragma: no cover — parser.error raises SystemExit


if __name__ == "__main__":
    sys.exit(main())
