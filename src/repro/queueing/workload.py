"""Frame-level workload recursions for an ATM multiplexer.

Section 4.2 / 5.5 of the paper: the multiplexer serves C cells per
frame from a buffer of B cells fed by the aggregate frame process
X_n.  With the paper's deterministic smoothing (each source's cells
equispaced over the frame, all sources frame-aligned), the in-frame
dynamics are fluid — arrival rate X_n/T_s and service rate C/T_s are
constant within a frame — so the workload at frame boundaries obeys
the Lindley-type recursion of Section 4.2:

    ``W_{n+1} = (min(W_n + X_n - C, B))^+``

and the fluid loss in frame n is exactly

    ``loss_n = max(W_n + X_n - C - B, 0)``

(the buffer can only overshoot when the frame's net input is
positive, in which case the overshoot is linear in time and the
spilled volume is the terminal excess).

Simulators:

* :func:`simulate_finite_buffer` — the recursion above for one
  arrival path, built on the chunked kernel below;
* :func:`simulate_finite_buffer_batch` — the same recursion run
  across a replication axis (``(R, n)`` arrivals) in one pass, the
  engine of the batched parallel workers;
* :func:`simulate_infinite_buffer` — exact O(n) vectorized form via
  the reflection identity ``W_n = S_n - min_{k <= n} S_k`` with
  ``S_n = sum_{i<n} (X_i - C)``, used for BOP (overflow-probability)
  estimation.

The finite-buffer recursion has no exact prefix-scan form, so the
kernel works in fixed-size frame chunks: within a chunk the *uncapped*
reflected trajectory (a cumsum + running minimum) dominates the capped
one, so any row whose uncapped trajectory never exceeds ``B`` is
loss-free in that chunk and the two trajectories coincide; rows that
do overflow fall back to the exact sequential recursion for that chunk
only.  At the target operating points (CLR around 1e-6) almost every
(row, chunk) pair takes the vector path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.exceptions import SimulationError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.utils.validation import check_positive

#: Frames per kernel chunk.  This constant is part of the *numeric
#: definition* of the recursion, not a tuning knob: chunk-boundary
#: states on loss-free chunks come from the vectorized reflection
#: formula, whose floating-point path differs by ulps from the
#: sequential recursion, so changing the chunk size changes low-order
#: bits.  Every caller — serial, batched workers, the resilience
#: engine — goes through the same kernel with the same chunk size,
#: which is what keeps parallel results bit-identical to serial.
_KERNEL_CHUNK = 16_384


def _finite_buffer_kernel(
    x: np.ndarray,
    capacity: float,
    buffer_size: float,
    *,
    want_workload: bool,
):
    """Run the finite-buffer recursion over ``(R, n)`` arrival rows.

    Returns ``(lost, workload, final)``: per-frame fluid loss
    ``(R, n)``, frame-start workload ``(R, n)`` (``None`` unless
    requested), and the end-of-run workload ``(R,)``.

    Per chunk, ``s`` is the row cumsum of ``x - C`` and the uncapped
    trajectory from entry state ``w0`` is
    ``v_k = max(w0 + s_k, s_k - min(0, min_{j<=k} s_j))``.  The capped
    (finite-``B``) workload is dominated by ``v``, so ``max_k v_k <= B``
    proves the chunk loss-free for that row, in which case the capped
    recursion *equals* ``v`` and the row advances vectorized; otherwise
    the row replays the chunk through the exact sequential recursion.
    All row-wise operations (cumsum, running min, row sums) are
    independent of how many rows share the call, so row ``i`` of a
    batch is bit-identical to running that row alone.
    """
    n_rows, n_frames = x.shape
    lost = np.zeros_like(x)
    workload = np.empty_like(x) if want_workload else None
    state = np.zeros(n_rows)

    def step(w: float, a: float) -> float:
        return min(max(w + a - capacity, 0.0), buffer_size)

    for start in range(0, n_frames, _KERNEL_CHUNK):
        stop = min(start + _KERNEL_CHUNK, n_frames)
        chunk = x[:, start:stop]
        s = np.cumsum(chunk - capacity, axis=1)
        hold = np.minimum(np.minimum.accumulate(s, axis=1), 0.0)
        v = np.maximum(state[:, np.newaxis] + s, s - hold)
        if want_workload:
            workload[:, start] = state
            workload[:, start + 1 : stop] = v[:, :-1]
        new_state = v[:, -1].copy()
        # Rows whose uncapped trajectory overflows B replay the chunk
        # sequentially (C-speed via itertools.accumulate); `lost` stays
        # exactly 0.0 everywhere else.
        for i in np.flatnonzero(v.max(axis=1) > buffer_size):
            row = chunk[i]
            after = np.fromiter(
                accumulate(row, step, initial=float(state[i])),
                dtype=float,
                count=row.size + 1,
            )
            row_start = after[:-1]
            lost[i, start:stop] = np.maximum(
                row_start + row - capacity - buffer_size, 0.0
            )
            if want_workload:
                workload[i, start:stop] = row_start
            new_state[i] = after[-1]
        state = new_state
    return lost, workload, state


@dataclass(frozen=True)
class FiniteBufferResult:
    """Outcome of a finite-buffer run.

    Attributes
    ----------
    workload:
        W_n at the *start* of each frame (before that frame's
        arrivals), length n_frames.
    lost_cells:
        Fluid loss per frame, same length.
    arrived_cells:
        Total offered cells (sum of the input).
    """

    workload: np.ndarray
    lost_cells: np.ndarray
    arrived_cells: float

    @property
    def total_lost(self) -> float:
        return float(self.lost_cells.sum())

    @property
    def clr(self) -> float:
        """Cell loss rate: fraction of offered cells lost."""
        if self.arrived_cells <= 0:
            raise SimulationError("no cells arrived; CLR undefined")
        return self.total_lost / self.arrived_cells


def simulate_finite_buffer(
    arrivals: np.ndarray, capacity: float, buffer_size: float
) -> FiniteBufferResult:
    """Run the finite-buffer recursion over an arrival sample path.

    Parameters
    ----------
    arrivals:
        Aggregate cells per frame, X_n (length = number of frames).
    capacity:
        Service C in cells/frame (total, not per source).
    buffer_size:
        Buffer B in cells; 0 models bufferless multiplexing.
    """
    check_positive(capacity, "capacity")
    check_positive(buffer_size, "buffer_size", strict=False)
    x = np.ascontiguousarray(arrivals, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise SimulationError("arrivals must be a non-empty 1-D array")
    lost2d, work2d, final = _finite_buffer_kernel(
        x[np.newaxis, :], capacity, buffer_size, want_workload=True
    )
    workload = work2d[0]
    lost = lost2d[0]
    if _spans._ENABLED:
        end = np.empty_like(workload)
        end[:-1] = workload[1:]
        end[-1] = final[0]
        _record_run_telemetry(x, lost, end)
    return FiniteBufferResult(
        workload=workload, lost_cells=lost, arrived_cells=float(x.sum())
    )


@dataclass(frozen=True)
class FiniteBufferBatchResult:
    """Outcome of a batched finite-buffer run over ``R`` replications.

    Row ``i`` is bit-identical to
    ``simulate_finite_buffer(arrivals[i], ...)`` on the same inputs —
    the batched kernel is the same kernel, and every row-wise numpy
    operation is independent of the other rows.

    Attributes
    ----------
    lost_cells:
        Per-frame fluid loss, shape ``(R, n_frames)``.
    arrived_cells:
        Offered cells per replication, shape ``(R,)``.
    final_workload:
        End-of-run workload per replication, shape ``(R,)``.
    """

    lost_cells: np.ndarray
    arrived_cells: np.ndarray
    final_workload: np.ndarray

    @property
    def total_lost(self) -> np.ndarray:
        # Summed row-by-row (each row of a C-contiguous matrix is
        # itself contiguous) so each entry carries the same pairwise
        # summation bits as ``FiniteBufferResult.total_lost``.
        return np.array([float(row.sum()) for row in self.lost_cells])


def simulate_finite_buffer_batch(
    arrivals: np.ndarray, capacity: float, buffer_size: float
) -> FiniteBufferBatchResult:
    """Run the finite-buffer recursion over ``R`` replications at once.

    ``arrivals`` is ``(R, n_frames)`` — one aggregate sample path per
    row.  One chunked kernel pass replaces ``R`` Python-level runs;
    this is the engine behind the batched parallel workers.
    """
    check_positive(capacity, "capacity")
    check_positive(buffer_size, "buffer_size", strict=False)
    x = np.ascontiguousarray(arrivals, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[1] == 0:
        raise SimulationError(
            "arrivals must be a non-empty 2-D array "
            "(replications x frames)"
        )
    lost, _, final = _finite_buffer_kernel(
        x, capacity, buffer_size, want_workload=False
    )
    arrived = np.array([float(row.sum()) for row in x])
    return FiniteBufferBatchResult(
        lost_cells=lost, arrived_cells=arrived, final_workload=final
    )


def _busy_period_lengths(busy: np.ndarray) -> np.ndarray:
    """Lengths (frames) of maximal runs of True in a boolean array."""
    padded = np.concatenate(([False], busy, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return edges[1::2] - edges[::2]


def _record_run_telemetry(
    x: np.ndarray, lost: np.ndarray, end_workload: np.ndarray
) -> None:
    """Telemetry for one finite-buffer run (only called when enabled).

    Busy periods are maximal runs of frames ending with a non-empty
    buffer — for heavy-tailed inputs their length distribution is the
    quantity that controls estimator variance.  Their lengths go into
    a quantile sketch through the exact ``observe_counts``.
    """
    _metrics.add("frames_simulated", int(x.size))
    _metrics.add("cells_arrived", float(x.sum()))
    _metrics.add("cells_lost", float(lost.sum()))
    _metrics.add("loss_frames", int(np.count_nonzero(lost)))
    lengths, counts = np.unique(
        _busy_period_lengths(end_workload > 0.0), return_counts=True
    )
    if lengths.size:
        _metrics.sketch("busy_period_frames").observe_counts(
            dict(zip(lengths.tolist(), counts.tolist()))
        )


@dataclass(frozen=True)
class InfiniteBufferResult:
    """Outcome of an infinite-buffer run (workload only, no loss)."""

    workload: np.ndarray

    def overflow_probability(self, thresholds: np.ndarray) -> np.ndarray:
        """Empirical ``P(W > B)`` at each threshold (stationary fraction)."""
        t = np.atleast_1d(np.asarray(thresholds, dtype=float))
        w_sorted = np.sort(self.workload)
        n = w_sorted.shape[0]
        exceed = n - np.searchsorted(w_sorted, t, side="right")
        return exceed / n


def simulate_infinite_buffer(
    arrivals: np.ndarray, capacity: float
) -> InfiniteBufferResult:
    """Exact infinite-buffer workload via the reflection identity.

    ``W_{n+1} = max(W_n + X_n - C, 0)`` started empty equals
    ``S_{n+1} - min_{0 <= k <= n+1} S_k`` with S the centered cumulative
    sum — one cumsum and one running minimum, no Python loop.
    Returned workloads are at frame starts (W_0 = 0 included).
    """
    check_positive(capacity, "capacity")
    x = np.asarray(arrivals, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise SimulationError("arrivals must be a non-empty 1-D array")
    if _spans._ENABLED:
        _metrics.add("frames_simulated", int(x.size))
        _metrics.add("cells_arrived", float(x.sum()))
    s = np.concatenate(([0.0], np.cumsum(x - capacity)))
    running_min = np.minimum.accumulate(s)
    return InfiniteBufferResult(workload=s - running_min)
