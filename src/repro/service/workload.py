"""Reproducible synthetic connection workloads for the CAC service.

A connection-level workload is the classical teletraffic object the
replay driver streams through the admission engine: connection
requests arrive in a Poisson stream of rate ``lambda`` and hold their
admitted capacity for i.i.d. holding times of mean ``tau`` — offering
``a = lambda * tau`` Erlangs against the link's admissible-N boundary.

Holding times come in two laws:

* ``exponential`` — the textbook M/M/N(0) assumption under which the
  Erlang-B picture applies;
* ``heavy-tailed`` — the paper-consistent alternative: durations drawn
  from :class:`~repro.models.heavy_tail.HeavyTailedDuration` (the
  exponential-body / Pareto-tail law of the fractal ON/OFF sources,
  ``1 < gamma < 2``), whose infinite variance makes connection-level
  occupancy itself long-range dependent.  Blocking probability is
  famously insensitive to the holding-time law (only the mean enters
  the offered load), and the replay driver lets that classical
  insensitivity be measured directly against LRD session durations.

Determinism follows the library's ``SeedSequence`` conventions: all
draws come from one caller-supplied generator in a fixed order
(inter-arrivals, then holding times, then class labels), so the same
generator state always produces the identical workload — the property
the replay driver's serial/parallel bit-identity contract rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.models.base import TrafficModel
from repro.models.heavy_tail import HeavyTailedDuration
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import (
    check_in_range,
    check_integer,
    check_positive,
)

__all__ = [
    "ConnectionClass",
    "HOLDING_LAWS",
    "Workload",
    "WorkloadSpec",
    "generate_workload",
    "holding_time_distribution",
]

#: Supported holding-time laws.
HOLDING_LAWS: Tuple[str, ...] = ("exponential", "heavy-tailed")


@dataclass(frozen=True)
class ConnectionClass:
    """One traffic class in the offered mix.

    ``weight`` is the relative arrival share of this class (weights
    are normalized over the mix, so any positive scale works).
    """

    name: str
    model: TrafficModel
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("class name must be non-empty")
        check_positive(self.weight, "weight")


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic connection workload (per link).

    ``arrival_rate`` is in connections/second, ``mean_holding_time``
    in seconds; their product is the offered load in Erlangs.
    """

    n_requests: int
    arrival_rate: float
    mean_holding_time: float
    holding: str = "exponential"
    #: Tail exponent gamma in (1, 2) for the heavy-tailed law
    #: (infinite variance; smaller gamma = heavier session tail).
    tail_gamma: float = 1.5

    def __post_init__(self) -> None:
        check_integer(self.n_requests, "n_requests", minimum=1)
        check_positive(self.arrival_rate, "arrival_rate")
        check_positive(self.mean_holding_time, "mean_holding_time")
        if self.holding not in HOLDING_LAWS:
            raise ParameterError(
                f"unknown holding-time law {self.holding!r}; choose from "
                f"{', '.join(HOLDING_LAWS)}"
            )
        check_in_range(self.tail_gamma, "tail_gamma", 1.0, 2.0)

    @property
    def offered_erlangs(self) -> float:
        """Offered load ``a = lambda * tau`` in Erlangs (connections)."""
        return self.arrival_rate * self.mean_holding_time


@dataclass(frozen=True)
class Workload:
    """A realized request stream: when, how long, and which class.

    Arrival times are finite, non-negative and non-decreasing, and
    holding times finite and non-negative: the replay's departure heap
    and carried-load integral assume both, so anything else is refused
    here rather than replayed into a wrong utilization.
    """

    arrival_times: np.ndarray
    holding_times: np.ndarray
    class_indices: np.ndarray

    def __post_init__(self) -> None:
        arrivals = np.asarray(self.arrival_times, dtype=float)
        holdings = np.asarray(self.holding_times, dtype=float)
        _check_times(arrivals, "arrival_times")
        _check_times(holdings, "holding_times")
        late = np.flatnonzero(np.diff(arrivals) < 0)
        if late.size:
            i = int(late[0]) + 1
            raise ParameterError(
                f"arrival_times must be non-decreasing, got "
                f"{float(arrivals[i])} after {float(arrivals[i - 1])} "
                f"at index {i}"
            )

    @property
    def n_requests(self) -> int:
        return int(self.arrival_times.shape[0])

    @property
    def horizon_seconds(self) -> float:
        """Time of the last arrival (the replay integration horizon).

        An empty stream has a zero-length horizon by contract — an
        idle link must report 0.0, not raise on the missing last
        element.
        """
        if self.arrival_times.shape[0] == 0:
            return 0.0
        return float(self.arrival_times[-1])


def _check_times(times: np.ndarray, name: str) -> None:
    bad = np.flatnonzero(~(np.isfinite(times) & (times >= 0)))
    if bad.size:
        i = int(bad[0])
        raise ParameterError(
            f"{name} must be finite and non-negative, got "
            f"{float(times[i])} at index {i}"
        )


def holding_time_distribution(spec: WorkloadSpec) -> HeavyTailedDuration:
    """The heavy-tailed law of ``spec``, knee-scaled to its mean.

    ``HeavyTailedDuration`` is parameterized by (gamma, knee); the mean
    is linear in the knee, so scaling the unit-knee mean hits
    ``spec.mean_holding_time`` exactly.
    """
    unit_mean = HeavyTailedDuration(spec.tail_gamma, 1.0).mean
    return HeavyTailedDuration(
        spec.tail_gamma, spec.mean_holding_time / unit_mean
    )


def generate_workload(
    spec: WorkloadSpec,
    classes: Sequence[ConnectionClass],
    rng: RngLike = None,
) -> Workload:
    """Draw one workload realization from ``rng``.

    Draw order is fixed (inter-arrivals, holding times, class labels)
    so a given generator state maps to exactly one workload.
    """
    if not classes:
        raise ParameterError("workload needs at least one ConnectionClass")
    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        raise ParameterError(f"class names must be unique, got {names}")
    generator = as_generator(rng)
    n = spec.n_requests

    inter_arrivals = generator.exponential(
        1.0 / spec.arrival_rate, size=n
    )
    arrival_times = np.cumsum(inter_arrivals)

    if spec.holding == "exponential":
        holding_times = generator.exponential(
            spec.mean_holding_time, size=n
        )
    else:
        law = holding_time_distribution(spec)
        holding_times = law.ppf(generator.random(size=n))

    if len(classes) == 1:
        class_indices = np.zeros(n, dtype=np.int64)
    else:
        weights = np.asarray([c.weight for c in classes], dtype=float)
        boundaries = np.cumsum(weights / weights.sum())
        uniforms = generator.random(size=n)
        class_indices = np.minimum(
            np.searchsorted(boundaries, uniforms, side="right"),
            len(classes) - 1,
        ).astype(np.int64)

    return Workload(
        arrival_times=arrival_times,
        holding_times=holding_times,
        class_indices=class_indices,
    )
