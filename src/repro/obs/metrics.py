"""Counters, gauges, and quantile sketches for simulation accounting.

The instruments answer the questions the paper's replication runs
raise: how many frames were actually simulated, how many cells were
offered and lost, how many RNG streams were spawned, how long the
busy periods were.  All updates share the global on/off switch of
:mod:`repro.obs.spans`, so the disabled cost of the module-level
helpers is one attribute read and an early return::

    from repro.obs import metrics

    metrics.add("frames_simulated", n_frames)
    metrics.observe_sketch_many("busy_period_frames", run_lengths)

Distributions go into :class:`~repro.obs.sketch.QuantileSketch` —
relative-error buckets, the right resolution for heavy-tailed
quantities like FBNDP busy periods, where linear bins either clip the
tail or drown the body.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Union

from repro.obs import spans as _spans
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "QuantileSketch",
    "add",
    "counter",
    "gauge",
    "merge_snapshot",
    "observe_sketch",
    "observe_sketch_many",
    "reset_metrics",
    "set_gauge",
    "sketch",
    "snapshot",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing sum (e.g. cells lost)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def add(self, value: Number = 1) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r}: increment must be >= 0")
        with self._lock:
            self._value += value

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self._value}


class Gauge:
    """A last-value instrument (e.g. current utilization)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value: Optional[float] = None

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> Optional[float]:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "gauge", "name": self.name, "value": self._value}


class MetricsRegistry:
    """A named collection of instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls: type):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def sketch(
        self,
        name: str,
        relative_accuracy: Optional[float] = None,
    ) -> QuantileSketch:
        """The quantile sketch ``name``, created on first use.

        ``relative_accuracy`` only matters at creation; asking for an
        existing sketch with a *different* accuracy is a registration
        error (the buckets would be incompatible).
        """
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = QuantileSketch(
                    name,
                    DEFAULT_RELATIVE_ACCURACY
                    if relative_accuracy is None
                    else relative_accuracy,
                )
                self._metrics[name] = metric
            elif not isinstance(metric, QuantileSketch):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not QuantileSketch"
                )
            elif (
                relative_accuracy is not None
                and metric.relative_accuracy != relative_accuracy
            ):
                raise TypeError(
                    f"sketch {name!r} already registered with "
                    f"relative_accuracy={metric.relative_accuracy}, "
                    f"not {relative_accuracy}"
                )
            return metric

    def snapshot(self) -> List[dict]:
        """All instruments as plain dicts, sorted by (type, name)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(
            (m.to_dict() for m in metrics),
            key=lambda d: (d["type"], d["name"]),
        )

    def merge_snapshot(self, metric_dicts: Iterable[dict]) -> None:
        """Fold a :meth:`snapshot` from elsewhere into this registry.

        Counters add, gauges adopt the shipped value (last write wins,
        as for local sets), sketches merge counts / extrema / buckets.
        A shipped metric whose name is registered under a different
        type raises :class:`TypeError`.
        """
        for data in metric_dicts:
            kind = data.get("type")
            name = data.get("name")
            if not name:
                continue
            if kind == "counter":
                # Register even a zero-valued counter: a parallel
                # run's snapshot must list the same instruments a
                # serial run would.
                value = float(data.get("value") or 0.0)
                self.counter(name).add(value)
            elif kind == "gauge":
                if data.get("value") is not None:
                    self.gauge(name).set(data["value"])
            elif kind == "sketch":
                self.sketch(
                    name, data.get("relative_accuracy")
                ).merge_dict(data)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


#: The process-wide registry used by the module-level helpers.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def sketch(
    name: str, relative_accuracy: Optional[float] = None
) -> QuantileSketch:
    return REGISTRY.sketch(name, relative_accuracy)


def add(name: str, value: Number = 1) -> None:
    """Increment counter ``name``; no-op while telemetry is disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.counter(name).add(value)


def set_gauge(name: str, value: Number) -> None:
    """Set gauge ``name``; no-op while telemetry is disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.gauge(name).set(value)


def observe_sketch(name: str, value: Number) -> None:
    """Record one sketch observation; no-op while disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.sketch(name).observe(value)


def observe_sketch_many(name: str, values: Iterable[Number]) -> None:
    """Record many sketch observations; no-op while disabled."""
    if not _spans._ENABLED:
        return
    REGISTRY.sketch(name).observe_many(values)


def snapshot() -> List[dict]:
    """All metrics in the global registry as plain dicts."""
    return REGISTRY.snapshot()


def merge_snapshot(metric_dicts: Iterable[dict]) -> None:
    """Fold a :func:`snapshot` from another process into the registry.

    Used by the parallel backends to merge per-worker metric buffers
    into the parent exporter (see
    :meth:`MetricsRegistry.merge_snapshot` for the per-type merge
    semantics).  No-op while telemetry is disabled.
    """
    if not _spans._ENABLED:
        return
    REGISTRY.merge_snapshot(metric_dicts)


def reset_metrics() -> None:
    """Clear the global registry."""
    REGISTRY.reset()
