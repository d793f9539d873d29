"""Cell-granularity ATM multiplexer — validation of the fluid recursion.

The frame-level recursion of :mod:`repro.queueing.workload` treats the
within-frame dynamics as fluid.  The paper's actual setting is
discrete: each source emits an integer number of cells *equispaced
over the frame duration* (deterministic smoothing), and the link
serves one 53-byte cell per slot of length ``T_s / C``.  This module
simulates exactly that — an event-driven queue at individual-cell
granularity — so tests can bound the fluid approximation error.

Complexity is O(total cells log total cells) for event generation and
sorting; the drain/loss recursion itself is evaluated in numpy chunks
(see :func:`simulate_cell_level`), falling back to a per-cell scan
only inside chunks that actually overflow the buffer, so loss-free
stretches — the overwhelmingly common case at engineered loads — cost
vector operations instead of a Python loop per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError
from repro.utils.validation import check_integer


def deterministic_smoothing_times(frame_arrivals: np.ndarray) -> np.ndarray:
    """Arrival instants (in frame units) for equispaced cells.

    ``frame_arrivals`` holds one source's integer cells per frame; cell
    j of frame n arrives at ``n + j / X_n`` (j = 0..X_n-1) — the
    paper's deterministic smoothing with frame-aligned sources.
    Returns a sorted 1-D array of times.
    """
    counts = np.asarray(frame_arrivals)
    if counts.ndim != 1:
        raise SimulationError("frame_arrivals must be 1-D")
    if np.any(counts < 0):
        raise SimulationError("frame_arrivals must be non-negative")
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0)
    frame_index = np.repeat(np.arange(counts.shape[0]), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(offsets, counts)
    return frame_index + within / np.repeat(counts, counts)


@dataclass(frozen=True)
class CellLevelResult:
    """Outcome of a cell-granularity run."""

    lost_cells: int
    arrived_cells: int

    @property
    def clr(self) -> float:
        if self.arrived_cells == 0:
            raise SimulationError("no cells arrived; CLR undefined")
        return self.lost_cells / self.arrived_cells


#: Arrivals per vectorized chunk of the drain/loss scan.
_SCAN_CHUNK = 8192


def _drain_counts(times: np.ndarray, capacity: int) -> np.ndarray:
    """Per-arrival service opportunities since the previous arrival.

    Slot boundaries sit at ``(k+1)/C`` (frame units); the number of
    boundaries at or before time ``t`` is ``floor(t * C)``, so the
    queue drains by the *difference* of that count between consecutive
    arrivals (exact: no arrivals occur inside the gap).
    """
    slots = np.floor(times * capacity).astype(np.int64)
    return np.diff(slots, prepend=0)


def _scan_chunk_lossy(drains: np.ndarray, queue: int, cap: int):
    """Exact per-cell scan of one chunk that may overflow.

    Returns (lost_in_chunk, queue_after_chunk).  Only reached for
    chunks whose loss-free upper bound exceeds the buffer, so the
    Python loop runs over congested stretches alone.
    """
    lost = 0
    for d in drains:
        if d:
            queue = max(queue - int(d), 0)
        if queue >= cap:
            lost += 1
        else:
            queue += 1
    return lost, queue


def simulate_cell_level(
    per_source_frames: np.ndarray,
    capacity: int,
    buffer_cells: int,
) -> CellLevelResult:
    """Slotted simulation of N frame-aligned smoothed sources.

    Parameters
    ----------
    per_source_frames:
        Integer array of shape (n_frames, n_sources): cells per frame
        per source.
    capacity:
        Service C in cells/frame; the link serves at slot boundaries
        ``(k+1)/C`` (frame units), one cell per slot while backlogged.
    buffer_cells:
        Waiting room in cells (the cell in service is extra); an
        arriving cell finding ``buffer_cells + 1`` cells present is
        lost.  ``buffer_cells = 0`` is the bufferless multiplexer.

    The drain/loss recursion is evaluated in chunks: for each chunk
    the *loss-free* (infinite-buffer) queue trajectory from the
    entering state is computed vectorially via the Lindley unrolling

        ``u_i = (i - D_i) + max(q0, 1 + max_{j<=i}(D_j - j))``

    (``D`` the running drain count).  The finite-buffer queue is
    bounded above by ``u`` and coincides with it while ``u`` stays
    within the buffer, so a chunk whose ``max(u)`` fits loses nothing
    and advances in O(chunk) numpy work; only chunks that would
    overflow fall back to the exact per-cell scan.  Counts are
    bit-identical to the plain loop for every input.
    """
    capacity = check_integer(capacity, "capacity", minimum=1)
    buffer_cells = check_integer(buffer_cells, "buffer_cells", minimum=0)
    frames = np.asarray(per_source_frames)
    if frames.ndim == 1:
        frames = frames[:, None]
    if frames.ndim != 2 or frames.size == 0:
        raise SimulationError("per_source_frames must be a non-empty 2-D array")

    times = np.sort(
        np.concatenate(
            [
                deterministic_smoothing_times(frames[:, s])
                for s in range(frames.shape[1])
            ]
        )
    )
    arrived = int(times.shape[0])
    if arrived == 0:
        return CellLevelResult(lost_cells=0, arrived_cells=0)

    drains = _drain_counts(times, capacity)
    cap = buffer_cells + 1
    lost = 0
    queue = 0
    for start in range(0, arrived, _SCAN_CHUNK):
        chunk = drains[start : start + _SCAN_CHUNK]
        m = chunk.shape[0]
        running = np.cumsum(chunk)
        # Loss-free after-arrival queue u_i from entering state `queue`:
        # renewal at the floor-at-zero is captured by the running max.
        positions = np.arange(1, m + 1)
        net = positions - running  # i - D_i
        floor_term = np.maximum.accumulate(running - positions) + 1
        u = net + np.maximum(queue, floor_term)
        if u.max() <= cap:
            queue = int(u[-1])
            continue
        chunk_lost, queue = _scan_chunk_lossy(chunk, queue, cap)
        lost += chunk_lost
    return CellLevelResult(lost_cells=lost, arrived_cells=arrived)

