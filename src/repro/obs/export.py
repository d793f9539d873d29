"""Serialize and summarize a run's telemetry.

Two consumers, two formats:

* **machines** — :func:`write_jsonl` emits one JSON object per line
  (schema below), :func:`read_jsonl` round-trips it.  Stable keys, so
  later sessions can diff traces across commits.
* **humans** — :func:`format_summary` renders the span forest as an
  indented table (calls, total/mean/max wall time) followed by the
  metrics, the thing the runner prints under ``--trace``.

JSONL schema (one ``type`` per line)::

    {"type": "meta", "schema": 1, "label": ..., "created_unix": ...}
    {"type": "span", "id": 3, "parent": 1, "name": "fig08.replication",
     "start_ns": ..., "duration_ns": ..., "thread": ..., "status": "ok",
     "attrs": {"rep": 0}, "trace": "9f2c..."}
    {"type": "counter", "name": "frames_simulated", "value": 12000}
    {"type": "gauge", "name": "...", "value": 0.87}
    {"type": "sketch", "name": "service.admit_latency_ns",
     "relative_accuracy": 0.01, "count": 10000, "zero_count": 0,
     "min": ..., "max": ..., "sum_estimate": ..., "buckets": {...}}
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs.sketch import REPORT_QUANTILES, QuantileSketch
from repro.obs.spans import SpanRecord

__all__ = [
    "TelemetryDump",
    "format_summary",
    "read_jsonl",
    "write_jsonl",
]

SCHEMA_VERSION = 1


def _span_to_dict(record: SpanRecord) -> dict:
    return {
        "type": "span",
        "id": record.span_id,
        "parent": record.parent_id,
        "name": record.name,
        "start_ns": record.start_ns,
        "duration_ns": record.duration_ns,
        "thread": record.thread_id,
        "status": record.status,
        "attrs": record.attrs,
        "trace": record.trace_id,
    }


def _span_from_dict(obj: dict) -> SpanRecord:
    return SpanRecord(
        span_id=obj["id"],
        parent_id=obj["parent"],
        name=obj["name"],
        start_ns=obj["start_ns"],
        duration_ns=obj["duration_ns"],
        thread_id=obj["thread"],
        status=obj.get("status", "ok"),
        attrs=obj.get("attrs", {}),
        trace_id=obj.get("trace"),
    )


def write_jsonl(
    path: Union[str, Path],
    *,
    span_records: Optional[Sequence[SpanRecord]] = None,
    metric_dicts: Optional[Sequence[dict]] = None,
    label: str = "",
) -> Path:
    """Write spans + metrics as JSONL; defaults to the live collectors.

    Returns the path written.  Parent directories are created.
    """
    if span_records is None:
        span_records = _spans.records()
    if metric_dicts is None:
        metric_dicts = _metrics.snapshot()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        meta = {
            "type": "meta",
            "schema": SCHEMA_VERSION,
            "label": label,
            "created_unix": time.time(),
        }
        fh.write(json.dumps(meta) + "\n")
        for record in span_records:
            fh.write(json.dumps(_span_to_dict(record)) + "\n")
        for metric in metric_dicts:
            fh.write(json.dumps(metric) + "\n")
    return path


@dataclass
class TelemetryDump:
    """A parsed JSONL trace: meta line, span forest, metrics by kind."""

    meta: dict = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, Optional[float]] = field(default_factory=dict)
    sketches: Dict[str, dict] = field(default_factory=dict)

    def metric_dicts(self) -> List[dict]:
        """The metrics back in snapshot form (mergeable, formattable)."""
        dicts: List[dict] = [
            {"type": "counter", "name": name, "value": value}
            for name, value in self.counters.items()
        ]
        dicts.extend(
            {"type": "gauge", "name": name, "value": value}
            for name, value in self.gauges.items()
        )
        dicts.extend(self.sketches.values())
        return sorted(dicts, key=lambda d: (d["type"], d["name"]))


def read_jsonl(path: Union[str, Path]) -> TelemetryDump:
    """Parse a file produced by :func:`write_jsonl`."""
    dump = TelemetryDump()
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.get("type")
            if kind == "meta":
                dump.meta = obj
            elif kind == "span":
                dump.spans.append(_span_from_dict(obj))
            elif kind == "counter":
                dump.counters[obj["name"]] = obj["value"]
            elif kind == "gauge":
                dump.gauges[obj["name"]] = obj["value"]
            elif kind == "sketch":
                dump.sketches[obj["name"]] = obj
    return dump


def _format_duration(ns: float) -> str:
    seconds = ns * 1e-9
    if seconds >= 100.0:
        return f"{seconds:.0f}s"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _aggregate_paths(
    span_records: Sequence[SpanRecord],
) -> Dict[Tuple[str, ...], List[float]]:
    """Aggregate spans by their name path (root -> ... -> span name)."""
    by_id = {r.span_id: r for r in span_records}
    paths: Dict[Tuple[str, ...], List[float]] = {}
    for record in span_records:
        names = [record.name]
        cursor = record
        while cursor.parent_id is not None:
            parent = by_id.get(cursor.parent_id)
            if parent is None:  # parent still open or trimmed — treat as root
                break
            names.append(parent.name)
            cursor = parent
        key = tuple(reversed(names))
        agg = paths.setdefault(key, [0, 0.0, 0.0])  # calls, total_ns, max_ns
        agg[0] += 1
        agg[1] += record.duration_ns
        agg[2] = max(agg[2], record.duration_ns)
    return paths


def format_summary(
    span_records: Optional[Sequence[SpanRecord]] = None,
    metric_dicts: Optional[Sequence[dict]] = None,
) -> str:
    """Human-readable span tree + metrics table for one run."""
    if span_records is None:
        span_records = _spans.records()
    if metric_dicts is None:
        metric_dicts = _metrics.snapshot()

    lines: List[str] = []
    paths = _aggregate_paths(span_records)
    if paths:
        name_width = max(
            (2 * (len(p) - 1) + len(p[-1])) for p in paths
        )
        name_width = max(name_width, len("span"))
        header = (
            f"{'span':<{name_width}}  {'calls':>7}  {'total':>9}  "
            f"{'mean':>9}  {'max':>9}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for path in sorted(paths):
            calls, total_ns, max_ns = paths[path]
            indent = "  " * (len(path) - 1)
            label = indent + path[-1]
            lines.append(
                f"{label:<{name_width}}  {calls:>7d}  "
                f"{_format_duration(total_ns):>9}  "
                f"{_format_duration(total_ns / calls):>9}  "
                f"{_format_duration(max_ns):>9}"
            )
    else:
        lines.append("(no spans recorded)")

    counters = [m for m in metric_dicts if m["type"] == "counter"]
    gauges = [m for m in metric_dicts if m["type"] == "gauge"]
    sketches = [m for m in metric_dicts if m["type"] == "sketch"]
    if counters or gauges or sketches:
        lines.append("")
        lines.append("metrics")
        lines.append("-------")
        for m in counters:
            lines.append(f"{m['name']:<32}  {m['value']:>16,.0f}")
        for m in gauges:
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            lines.append(f"{m['name']:<32}  {value:>16}")
        for m in sketches:
            sketch = QuantileSketch.from_dict(m)
            quantiles = "  ".join(
                f"p{str(q).replace('0.', '')}={sketch.quantile(q):.4g}"
                for q in REPORT_QUANTILES
            )
            lines.append(
                f"{m['name']:<32}  n={sketch.count:,}  {quantiles}"
            )
    return "\n".join(lines)
