"""The ``obs`` command-line verb: reports, sweeps, gates.

Reachable both directly and through the experiment runner::

    python -m repro.experiments.runner obs report /tmp/metrics/fig08.jsonl
    python -m repro.experiments.runner obs sweep --requests 100000 \\
        --rho 0.6 --rho 0.8 --rho 0.95 --jobs 2
    python -m repro.experiments.runner obs compare \\
        benchmarks/results/timings.jsonl --jobs-scaling --threshold 5
    python -m repro.experiments.runner obs slo /tmp/metrics/run.jsonl

Four subcommands:

* ``report`` — merge one or more telemetry JSONL files (spans +
  metrics, sketches included) and render the human summary or
  canonical JSON;
* ``sweep`` — run the drive sweep (:func:`repro.service.drive.drive`,
  as ``runner drive`` does) one utilization rho at a time (offered
  Erlangs = rho x admissible N) and print the latency-vs-rho table:
  p50/p99/p999 admit latency per link and aggregate, the curve
  ROADMAP open item 2 asks for as rho -> 1;
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
from pathlib import Path
from typing import List, Optional

from repro.exceptions import ReproError
from repro.obs import export as _export
from repro.obs import metrics as _metrics
from repro.obs import slo as _slo
from repro.obs import spans as _spans
from repro.obs import timings as _timings
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.service import cli as _service_cli
from repro.service.drive import DRIVE_QUANTILES, drive
from repro.service.tables import DecisionTableCache

__all__ = ["build_parser", "main"]

#: The utilization grid of a sweep without ``--rho``.
SWEEP_RHO_GRID = (0.6, 0.8, 0.9, 0.95)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Tail-latency observability: telemetry reports, "
            "latency-vs-rho sweeps, SLO checks, perf-regression gates"
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

    sweep = sub.add_parser(
        "sweep",
        help="latency-vs-rho sweep of the admission-control drive",
    )
    _service_cli.add_rho_argument(sweep, grid=SWEEP_RHO_GRID)
    _service_cli.add_run_arguments(sweep, requests=20_000)
    _service_cli.add_link_arguments(sweep, links=1)
    sweep.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the sweep as a JSON report to FILE",
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
        "same experiment (flags the ProcessPool spawn tax)",
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


# -- sweep -------------------------------------------------------------------


def _sketch_quantiles(data: Optional[dict]) -> dict:
    if data is None or not data.get("count"):
        return {f"p{q}": None for q in DRIVE_QUANTILES}
    sketch = QuantileSketch.from_dict(data)
    return {f"p{q}": sketch.quantile(q) for q in DRIVE_QUANTILES}


def _format_ns(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value / 1000.0:>9.2f}"


def _cmd_sweep(args: argparse.Namespace) -> int:
    _service_cli.check_counts(args)
    grid = _service_cli.rho_grid(args, SWEEP_RHO_GRID)
    classes, capacity, qos = _service_cli.operating_point(args)
    boundary = DecisionTableCache().lookup(
        classes[0].model, capacity, qos, args.policy
    )
    admissible = max(boundary.admissible, 1)

    rows = []
    print(
        f"latency-vs-rho sweep — policy {args.policy}, {args.links} "
        f"link(s) x {args.requests} requests/link, admissible N = "
        f"{admissible}, jobs={args.jobs}"
    )
    header = (
        f"{'rho':>6} {'erlangs':>8} {'P(block)':>9} "
        f"{'p50':>9} {'p99':>9} {'p999':>9}   (admit latency, us)"
    )
    print(header)
    print("-" * len(header))
    for rho in grid:
        # A clean registry per point: the per-link sketches the drive's
        # shards flush then hold this point's latencies only.
        _spans.reset_spans()
        _metrics.reset_metrics()
        (point,) = drive(
            classes,
            n_links=args.links,
            capacity=capacity,
            qos=qos,
            policy=args.policy,
            rho_grid=(rho,),
            requests_per_link=args.requests,
            mean_holding_time=args.holding_mean,
            seed=args.seed,
            jobs=args.jobs,
        ).points
        snapshot = {
            d["name"]: d for d in _metrics.snapshot() if d["type"] == "sketch"
        }
        aggregate = point.admit_latency_ns
        links = {
            f"link-{i}": _sketch_quantiles(
                snapshot.get(f"service.admit_latency_ns.link-{i}")
            )
            for i in range(args.links)
        }
        rows.append(
            {
                "rho": rho,
                "offered_erlangs": point.offered_erlangs,
                "blocking_probability": point.blocking_probability,
                "n_requests": point.n_requests,
                "admit_latency_ns": aggregate,
                "links": links,
            }
        )
        print(
            f"{rho:>6.3f} {point.offered_erlangs:>8.1f} "
            f"{point.blocking_probability:>9.4f} "
            f"{_format_ns(aggregate['p0.5'])} "
            f"{_format_ns(aggregate['p0.99'])} "
            f"{_format_ns(aggregate['p0.999'])}"
        )
        if args.links > 1:
            for link_id, q in links.items():
                print(
                    f"{'':>6} {link_id:>8} {'':>9} "
                    f"{_format_ns(q['p0.5'])} "
                    f"{_format_ns(q['p0.99'])} "
                    f"{_format_ns(q['p0.999'])}"
                )

    if args.out is not None:
        report = {
            "kind": "latency_vs_rho",
            "policy": args.policy,
            "requests_per_link": args.requests,
            "links": args.links,
            "jobs": args.jobs,
            "seed": args.seed,
            "admissible": admissible,
            "quantile_unit": "ns",
            "rows": rows,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(report, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"[wrote {out}]")
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
        "sweep": _cmd_sweep,
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
