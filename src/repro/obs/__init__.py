"""repro.obs — zero-dependency telemetry for the simulation pipeline.

The paper's headline numbers come from 60 replications of half a
million frames per model; at that depth the difference between a
converging run and a wedged one is invisible without measurement.
This package makes the pipeline observable:

* :mod:`repro.obs.spans`    — nested timing spans (``perf_counter_ns``);
* :mod:`repro.obs.metrics`  — counters / gauges / sketches
  (frames simulated, cells lost, RNG streams, busy periods);
* :mod:`repro.obs.sketch`   — mergeable relative-error quantile
  sketches (p50/p99/p999 tail latency, bit-identical under sharding);
* :mod:`repro.obs.tracectx` — trace identity propagated across the
  process pools, so merged traces stay one tree;
* :mod:`repro.obs.slo`      — declarative SLO targets + burn rates;
* :mod:`repro.obs.timings`  — schema'd benchmark rows and the
  regression comparison behind ``runner obs compare``;
* :mod:`repro.obs.export`   — JSONL serialization + human summary;
* :mod:`repro.obs.progress` — replication progress with ETA.

Telemetry is **disabled by default**; the instrumented hot paths pay
only a boolean check.  Enable it with :func:`enable`, the runner's
``--trace`` / ``--metrics-out`` flags, or ``REPRO_TRACE=1`` in the
environment::

    import repro.obs as obs

    obs.enable()
    run_experiment("fig08", scale)
    print(obs.format_summary())
    obs.write_jsonl("trace.jsonl")
"""

from __future__ import annotations

import os

from repro.obs import (
    export,
    metrics,
    progress,
    sketch,
    slo,
    spans,
    timings,
    tracectx,
)
from repro.obs.export import (
    TelemetryDump,
    format_summary,
    read_jsonl,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    snapshot,
)
from repro.obs.progress import ProgressReporter, eta_seconds
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import SLOResult, SLOTarget
from repro.obs.spans import (
    SpanRecord,
    disable,
    enable,
    is_enabled,
    records,
    reset_spans,
    span,
)
from repro.obs.tracectx import TraceContext, start_trace

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "ProgressReporter",
    "QuantileSketch",
    "SLOResult",
    "SLOTarget",
    "SpanRecord",
    "TelemetryDump",
    "TraceContext",
    "TRACE_ENV_VAR",
    "disable",
    "enable",
    "eta_seconds",
    "export",
    "format_summary",
    "is_enabled",
    "metrics",
    "progress",
    "read_jsonl",
    "records",
    "reset",
    "reset_spans",
    "sketch",
    "slo",
    "snapshot",
    "span",
    "spans",
    "start_trace",
    "timings",
    "tracectx",
    "write_jsonl",
]

#: Environment variable that enables telemetry at import time.
TRACE_ENV_VAR = "REPRO_TRACE"


def reset() -> None:
    """Discard all collected spans and metrics (enablement unchanged)."""
    spans.reset_spans()
    metrics.reset_metrics()


if os.environ.get(TRACE_ENV_VAR, "") not in ("", "0"):
    enable()
