"""Estimators and confidence intervals for loss statistics.

The paper's simulations (Section 5.5) report cell loss rates down to
1e-6 from 60 replications of half a million frames.  Replication
summaries here carry normal-theory confidence intervals over the
per-replication CLRs (the standard batch-means style treatment; the
per-frame losses inside one replication are heavily correlated, the
replication-level values are i.i.d. by construction).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError, UndefinedCIWarning


@dataclass(frozen=True)
class ReplicatedEstimate:
    """Mean-and-CI summary of per-replication estimates of one quantity."""

    values: np.ndarray
    confidence: float

    @property
    def n_replications(self) -> int:
        return int(self.values.shape[0])

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std_error(self) -> float:
        if self.n_replications < 2:
            return math.nan
        return float(self.values.std(ddof=1) / math.sqrt(self.n_replications))

    @property
    def half_width(self) -> float:
        """Student-t half width of the two-sided CI at ``confidence``."""
        n = self.n_replications
        if n < 2:
            return math.nan
        from scipy import stats

        quantile = stats.t.ppf(0.5 + self.confidence / 2.0, df=n - 1)
        return float(quantile * self.std_error)

    @property
    def interval(self) -> tuple:
        half = self.half_width
        return (self.mean - half, self.mean + half)

    @property
    def log10_mean(self) -> float:
        """log10 of the mean, -inf when no events were observed."""
        return math.log10(self.mean) if self.mean > 0 else -math.inf

    def to_json(self) -> dict:
        """JSON-safe summary dict (round-trips ``allow_nan=False``).

        A single replication has no spread, so ``std_error`` /
        ``half_width`` / ``interval`` export as ``null`` — with an
        explicit :class:`~repro.exceptions.UndefinedCIWarning` — rather
        than the bare ``NaN`` the numeric properties return, which
        ``json.dumps`` would happily write as invalid JSON.
        """
        if self.n_replications < 2:
            warnings.warn(
                UndefinedCIWarning(
                    "confidence interval undefined for a single "
                    "replication; exporting null CI bounds "
                    "(run >= 2 replications for a spread estimate)"
                ),
                stacklevel=2,
            )
            std_error: Optional[float] = None
            half_width: Optional[float] = None
            interval: Optional[list] = None
        else:
            std_error = self.std_error
            half_width = self.half_width
            low, high = self.interval
            interval = [low, high]
        return {
            "mean": self.mean,
            "n_replications": self.n_replications,
            "confidence": self.confidence,
            "std_error": std_error,
            "half_width": half_width,
            "interval": interval,
        }

    def __repr__(self) -> str:
        return (
            f"ReplicatedEstimate(mean={self.mean:.4g}, "
            f"half_width={self.half_width:.2g}, n={self.n_replications})"
        )


def replicated_estimate(
    values: Sequence[float], confidence: float = 0.95
) -> ReplicatedEstimate:
    """Bundle per-replication values into a :class:`ReplicatedEstimate`."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise SimulationError("need at least one replication value")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return ReplicatedEstimate(values=arr, confidence=confidence)


def pooled_clr(lost: Sequence[float], arrived: Sequence[float]) -> float:
    """Ratio-of-sums CLR across replications (the less biased pooling).

    Averaging per-replication ratios overweights light-traffic
    replications; total lost over total offered is the estimator that
    converges to the true stationary CLR.
    """
    lost_arr = np.asarray(lost, dtype=float)
    arrived_arr = np.asarray(arrived, dtype=float)
    if lost_arr.shape != arrived_arr.shape or lost_arr.size == 0:
        raise SimulationError("lost/arrived must be equal-length, non-empty")
    total_arrived = arrived_arr.sum()
    if total_arrived <= 0:
        raise SimulationError("no arrivals across replications")
    return float(lost_arr.sum() / total_arrived)


def survival_function(
    samples: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Empirical ``P(X > t)`` for each threshold."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise SimulationError("samples must be non-empty")
    t = np.atleast_1d(np.asarray(thresholds, dtype=float))
    return (x.shape[0] - np.searchsorted(x, t, side="right")) / x.shape[0]
