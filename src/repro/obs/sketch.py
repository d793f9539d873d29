"""Mergeable relative-error quantile sketch (DDSketch-style).

Power-of-two histogram buckets answer "what is the body of this
distribution" at ~2x resolution — far too coarse for tail questions
such as p99/p999 admit latency as utilization approaches 1.  A
:class:`QuantileSketch` keeps log-spaced buckets of ratio
``gamma = (1 + a) / (1 - a)`` so that any quantile estimate is within
relative error ``a`` of the exact order statistic, at ~1000 buckets
for nine decades of dynamic range at the default 1% accuracy.

Three properties the rest of the observability layer leans on:

* **mergeable** — ``merge()`` adds bucket counts, so sharded sketches
  (one per worker process, one per link) combine into exactly the
  sketch a single-process run would have produced;
* **deterministic** — the state is integer bucket counts plus exact
  min/max, all order-independent, so the canonical serialization of
  ``merge(a, b)`` is byte-identical to the unsharded sketch no matter
  the merge order (the bit-identity contract of the parallel
  backends extends to telemetry);
* **canonical JSON** — :meth:`to_json` emits one stable byte string
  per logical state: fixed key order, bucket keys ascending.

Observations must be finite and non-negative (they are latencies,
occupancies, durations); zeros land in a dedicated bucket.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Mapping, Optional, Union

from repro.exceptions import ParameterError

__all__ = [
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
]

Number = Union[int, float]

#: Default relative accuracy: estimates within 1% of the exact value.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Quantiles the human-readable reports print.
REPORT_QUANTILES = (0.5, 0.9, 0.99, 0.999)

#: Relative distance from a bucket bound, far above float rounding,
#: beyond which a value's bucket is certain without recomputing it.
_BOUND_MARGIN = 1e-9


class QuantileSketch:
    """Log-bucketed quantile sketch with bounded relative error.

    Bucket ``i`` covers ``(gamma^(i-1), gamma^i]`` with
    ``gamma = (1 + a) / (1 - a)``; the estimate for any value in a
    bucket is the bucket midpoint ``2 * gamma^i / (gamma + 1)``, which
    is within relative error ``a`` of every value in the bucket.
    Exact minimum and maximum are tracked so ``quantile(0)`` and
    ``quantile(1)`` are exact and every estimate is clamped into
    ``[min, max]``.
    """

    __slots__ = (
        "name",
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "_midpoint_scale",
        "_lock",
        "_count",
        "_zero_count",
        "_min",
        "_max",
        "_buckets",
    )

    def __init__(
        self,
        name: str,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ):
        if not 0.0 < relative_accuracy < 1.0:
            raise ParameterError(
                f"relative_accuracy must be in (0, 1), got "
                f"{relative_accuracy}"
            )
        self.name = name
        self.relative_accuracy = float(relative_accuracy)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._midpoint_scale = 2.0 / (self._gamma + 1.0)
        self._lock = threading.Lock()
        self._count = 0
        self._zero_count = 0
        self._min = math.inf
        self._max = -math.inf
        self._buckets: Dict[int, int] = {}

    # -- ingestion -----------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        """Smallest ``i`` with ``gamma^i >= value`` (value > 0)."""
        index = math.ceil(math.log(value) / self._log_gamma)
        # Guard the representable boundary: float log/ceil can land one
        # bucket low when value is exactly a bucket upper bound.
        if self._gamma**index < value:
            index += 1
        return index

    def observe(self, value: Number) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[Number]) -> None:
        vals = [float(v) for v in values]
        if not vals:
            return
        for v in vals:
            if not math.isfinite(v) or v < 0.0:
                raise ParameterError(
                    f"sketch {self.name!r}: observations must be finite "
                    f"and >= 0, got {v}"
                )
        with self._lock:
            for v in vals:
                self._count += 1
                if v < self._min:
                    self._min = v
                if v > self._max:
                    self._max = v
                if v == 0.0:
                    self._zero_count += 1
                else:
                    idx = self._bucket_index(v)
                    self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def observe_counts(self, counts: Mapping[Number, int]) -> None:
        """Record ``n`` observations of ``value`` for each item.

        Leaves exactly the state of ``n`` :meth:`observe` calls per
        value (the state is integer bucket counts plus extrema) — the
        batched ingestion a locally buffered recorder flushes through.
        The distinct values are sorted and taken a bucket at a time, so
        :meth:`_bucket_index` runs about once per bucket they reach,
        not once per value.  A negative or non-finite value, or a
        negative count, raises before anything is recorded.
        """
        values = sorted(counts)
        if values and (
            any(map(math.isnan, values))
            or values[0] < 0.0
            or values[-1] == math.inf
        ):
            bad = next(v for v in values if not 0.0 <= v < math.inf)
            raise ParameterError(
                f"sketch {self.name!r}: observations must be finite "
                f"and >= 0, got {bad}"
            )
        least = min(counts.values(), default=0)
        if least < 0:
            raise ParameterError(
                f"sketch {self.name!r}: observation counts must be >= 0"
            )
        if least == 0:
            values = [v for v in values if counts[v]]
        if not values:
            return
        weight = counts.__getitem__
        gamma = self._gamma
        with self._lock:
            # Zeros sort first and have a bucket of their own.
            i = bisect_right(values, 0.0)
            self._zero_count += int(sum(map(weight, values[:i])))
            while i < len(values):
                idx = self._bucket_index(float(values[i]))
                # When this value clears the lower bound's margin, the
                # later values short of the upper bound's margin lie
                # inside bucket idx, farther than float rounding from
                # both bounds, where _bucket_index can only answer idx:
                # take them as one slice.
                j = i + 1
                if gamma ** (idx - 1) * (1 + _BOUND_MARGIN) < values[i]:
                    inner_high = gamma**idx * (1 - _BOUND_MARGIN)
                    j = max(j, bisect_left(values, inner_high, j))
                n = int(sum(map(weight, values[i:j])))
                self._buckets[idx] = self._buckets.get(idx, 0) + n
                i = j
            self._count += int(sum(counts.values()))
            self._min = min(self._min, float(values[0]))
            self._max = max(self._max, float(values[-1]))

    # -- queries -------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def min(self) -> float:
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        return self._max if self._count else math.nan

    @property
    def sum_estimate(self) -> float:
        """Approximate sum (within relative accuracy), bucket-derived.

        Derived rather than accumulated so the sketch state stays
        order-independent — a float running sum would make merged and
        unsharded sketches differ in the last bits.
        """
        with self._lock:
            return self._sum_estimate_locked()

    def _sum_estimate_locked(self) -> float:
        total = 0.0
        for idx in sorted(self._buckets):
            total += self._buckets[idx] * self._midpoint(idx)
        return total

    @property
    def mean_estimate(self) -> float:
        return self.sum_estimate / self._count if self._count else math.nan

    def _midpoint(self, index: int) -> float:
        return self._gamma**index * self._midpoint_scale

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 <= q <= 1) of the data seen.

        Returns the value of the order statistic at rank
        ``floor(q * (count - 1))`` to within the configured relative
        accuracy; NaN while the sketch is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile q must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return math.nan
            target = math.floor(q * (self._count - 1))
            # The first and last order statistics are tracked exactly.
            if target <= 0:
                return self._min
            if target >= self._count - 1:
                return self._max
            cumulative = self._zero_count
            if cumulative > target:
                estimate = 0.0
            else:
                estimate = self._max
                for idx in sorted(self._buckets):
                    cumulative += self._buckets[idx]
                    if cumulative > target:
                        estimate = self._midpoint(idx)
                        break
            low, high = self._min, self._max
        return max(low, min(high, estimate))

    def quantiles(self, qs: Iterable[float]) -> Dict[float, float]:
        return {float(q): self.quantile(q) for q in qs}

    # -- merging and serialization -------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch of the same accuracy into this one."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ParameterError(
                f"cannot merge sketches of different accuracy "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        self.merge_dict(other.to_dict())

    def merge_dict(self, data: dict) -> None:
        """Fold a :meth:`to_dict` snapshot (e.g. from a worker) in."""
        count = int(data.get("count", 0))
        if count == 0:
            return
        accuracy = data.get("relative_accuracy")
        if accuracy is not None and float(accuracy) != self.relative_accuracy:
            raise ParameterError(
                f"sketch {self.name!r}: cannot merge snapshot of "
                f"accuracy {accuracy} into sketch of accuracy "
                f"{self.relative_accuracy}"
            )
        with self._lock:
            self._count += count
            self._zero_count += int(data.get("zero_count", 0))
            low = data.get("min")
            high = data.get("max")
            if low is not None and float(low) < self._min:
                self._min = float(low)
            if high is not None and float(high) > self._max:
                self._max = float(high)
            for key, n in (data.get("buckets") or {}).items():
                idx = int(key)
                self._buckets[idx] = self._buckets.get(idx, 0) + int(n)

    def to_dict(self) -> dict:
        """Plain-dict snapshot; bucket keys ascending by index."""
        with self._lock:
            return {
                "type": "sketch",
                "name": self.name,
                "relative_accuracy": self.relative_accuracy,
                "count": self._count,
                "zero_count": self._zero_count,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "sum_estimate": self._sum_estimate_locked(),
                "buckets": {
                    str(i): self._buckets[i] for i in sorted(self._buckets)
                },
            }

    def to_json(self) -> str:
        """Canonical one-line JSON: one byte string per logical state."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        """Rebuild a sketch from a :meth:`to_dict` snapshot."""
        sketch = cls(
            data.get("name", ""),
            float(
                data.get("relative_accuracy", DEFAULT_RELATIVE_ACCURACY)
            ),
        )
        sketch.merge_dict(data)
        return sketch

    @classmethod
    def window(
        cls, start: Optional[dict], end: dict
    ) -> "QuantileSketch":
        """The sketch of observations between two cumulative snapshots.

        Bucket counts subtract exactly (the sketch only ever grows),
        which is what window-based SLO burn rates need.  The window's
        true min/max are unrecoverable from cumulative extrema, so the
        result keeps the ``end`` extrema as clamp bounds — a superset
        of the window's range, preserving the relative-error bound.
        """
        window = cls.from_dict(end)
        if start is None or int(start.get("count", 0)) == 0:
            return window
        if float(
            start.get("relative_accuracy", DEFAULT_RELATIVE_ACCURACY)
        ) != window.relative_accuracy:
            raise ParameterError(
                "cannot window sketches of different relative accuracy"
            )
        window._count -= int(start.get("count", 0))
        window._zero_count -= int(start.get("zero_count", 0))
        for key, n in (start.get("buckets") or {}).items():
            idx = int(key)
            remaining = window._buckets.get(idx, 0) - int(n)
            if remaining < 0:
                raise ParameterError(
                    "window start snapshot is not a prefix of the end "
                    f"snapshot (bucket {idx} would go negative)"
                )
            if remaining:
                window._buckets[idx] = remaining
            else:
                window._buckets.pop(idx, None)
        if window._count < 0 or window._zero_count < 0:
            raise ParameterError(
                "window start snapshot is not a prefix of the end snapshot"
            )
        return window

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(name={self.name!r}, "
            f"relative_accuracy={self.relative_accuracy}, "
            f"count={self._count})"
        )
