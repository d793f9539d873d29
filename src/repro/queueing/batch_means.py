"""Batch-means confidence intervals for single long simulation runs.

The paper uses independent replications (60 x 500k frames) because
heavy-tailed ON/OFF times make within-run estimates treacherous.  The
batch-means method is the standard alternative when one long run is
cheaper than many starts: split the run into contiguous batches, treat
batch averages as approximately i.i.d., and apply normal theory.

For LRD input the usual caveat bites hard — batch means decorrelate
only like (batch length)^{2H-2} — so the implementation also reports
the lag-1 correlation between batch means.  A large value is the
method telling you the batches are too short: exactly the
slow-convergence phenomenon that motivated the paper's replication
design, made visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError
from repro.utils.validation import check_in_range, check_integer


@dataclass(frozen=True)
class BatchMeansEstimate:
    """A batch-means summary of one long run."""

    mean: float
    half_width: float
    n_batches: int
    batch_frames: int
    batch_lag1: float
    confidence: float

    @property
    def interval(self) -> tuple:
        return (self.mean - self.half_width, self.mean + self.half_width)

    @property
    def batches_look_independent(self) -> bool:
        """Heuristic check that the batch length was long enough.

        Lag-1 correlation of batch means below ~0.2 is the customary
        rule of thumb; LRD input typically fails it unless batches are
        very long.
        """
        return abs(self.batch_lag1) < 0.2


def batch_means(
    per_frame_values: np.ndarray,
    n_batches: int = 20,
    *,
    confidence: float = 0.95,
) -> BatchMeansEstimate:
    """Batch-means CI for the mean of a per-frame statistic.

    Parameters
    ----------
    per_frame_values:
        E.g. per-frame lost cells or workload from one long run.
    n_batches:
        Number of contiguous batches (10-30 is conventional).
    """
    x = np.asarray(per_frame_values, dtype=float)
    if x.ndim != 1:
        raise SimulationError("per_frame_values must be 1-D")
    n_batches = check_integer(n_batches, "n_batches", minimum=2)
    check_in_range(confidence, "confidence", 0.0, 1.0)
    batch_frames = x.shape[0] // n_batches
    if batch_frames < 1:
        raise SimulationError(
            f"run too short: {x.shape[0]} frames for {n_batches} batches"
        )
    trimmed = x[: batch_frames * n_batches]
    means = trimmed.reshape(n_batches, batch_frames).mean(axis=1)
    return _summarize(means, batch_frames, confidence)


def _summarize(
    means: np.ndarray, batch_frames: int, confidence: float
) -> BatchMeansEstimate:
    n_batches = means.shape[0]
    grand_mean = float(means.mean())
    std_error = float(means.std(ddof=1) / math.sqrt(n_batches))
    from scipy import stats

    quantile = float(stats.t.ppf(0.5 + confidence / 2.0, df=n_batches - 1))
    centered = means - grand_mean
    denominator = float(np.dot(centered, centered))
    if denominator > 0:
        lag1 = float(np.dot(centered[:-1], centered[1:]) / denominator)
    else:
        lag1 = 0.0
    return BatchMeansEstimate(
        mean=grand_mean,
        half_width=quantile * std_error,
        n_batches=n_batches,
        batch_frames=batch_frames,
        batch_lag1=lag1,
        confidence=confidence,
    )


def batch_means_clr(
    lost_cells: np.ndarray,
    arrived_cells: np.ndarray,
    n_batches: int = 20,
    *,
    confidence: float = 0.95,
) -> BatchMeansEstimate:
    """Batch-means CI for a cell loss rate (ratio estimator).

    Batches the per-frame loss/arrival pair jointly and forms
    per-batch CLRs, so the estimate is a proper ratio-of-sums within
    each batch.
    """
    lost = np.asarray(lost_cells, dtype=float)
    arrived = np.asarray(arrived_cells, dtype=float)
    if lost.shape != arrived.shape or lost.ndim != 1:
        raise SimulationError("lost/arrived must be equal-length 1-D arrays")
    n_batches = check_integer(n_batches, "n_batches", minimum=2)
    batch_frames = lost.shape[0] // n_batches
    if batch_frames < 1:
        raise SimulationError("run too short for the requested batches")
    shape = (n_batches, batch_frames)
    lost_batches = lost[: batch_frames * n_batches].reshape(shape).sum(axis=1)
    arrived_batches = (
        arrived[: batch_frames * n_batches].reshape(shape).sum(axis=1)
    )
    if np.any(arrived_batches <= 0):
        raise SimulationError("a batch received no cells; enlarge batches")
    check_in_range(confidence, "confidence", 0.0, 1.0)
    ratios = lost_batches / arrived_batches
    return _summarize(ratios, batch_frames, confidence)
