"""Tests for the cell-granularity simulator vs the fluid recursion."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.queueing.cell_level import (
    deterministic_smoothing_times,
    simulate_cell_level,
)
from repro.queueing.workload import simulate_finite_buffer


class TestSmoothingTimes:
    def test_equispaced_within_frame(self):
        times = deterministic_smoothing_times(np.array([4]))
        assert np.allclose(times, [0.0, 0.25, 0.5, 0.75])

    def test_multi_frame(self):
        times = deterministic_smoothing_times(np.array([2, 1]))
        assert np.allclose(times, [0.0, 0.5, 1.0])

    def test_zero_frames_allowed(self):
        times = deterministic_smoothing_times(np.array([0, 3, 0]))
        assert np.allclose(times, [1.0, 1.0 + 1 / 3, 1.0 + 2 / 3])

    def test_empty(self):
        assert deterministic_smoothing_times(np.zeros(5, int)).size == 0

    def test_rejects_negative(self):
        with pytest.raises(SimulationError):
            deterministic_smoothing_times(np.array([-1]))


class TestCellLevel:
    def test_no_loss_when_underloaded(self, rng):
        frames = rng.integers(0, 8, size=(200, 3))
        result = simulate_cell_level(frames, capacity=40, buffer_cells=100)
        assert result.lost_cells == 0
        assert result.arrived_cells == int(frames.sum())

    def test_loss_when_overloaded(self):
        frames = np.full((50, 1), 20)
        result = simulate_cell_level(frames, capacity=10, buffer_cells=5)
        assert result.lost_cells > 0
        # Long-run loss rate approaches (20 - 10)/20 = 0.5.
        assert result.clr == pytest.approx(0.5, abs=0.05)

    def test_agrees_with_fluid_at_high_rates(self, rng):
        # With many cells per frame, the slotted system converges to
        # the fluid recursion.
        n_frames, n_sources = 300, 5
        frames = rng.poisson(200, size=(n_frames, n_sources))
        capacity = 1050  # utilization ~0.95
        buffer_cells = 400
        cell = simulate_cell_level(frames, capacity, buffer_cells)
        fluid = simulate_finite_buffer(
            frames.sum(axis=1).astype(float), float(capacity),
            float(buffer_cells),
        )
        assert cell.clr == pytest.approx(fluid.clr, abs=0.005)

    def test_single_source_1d_input(self):
        frames = np.full(20, 15)
        result = simulate_cell_level(frames, capacity=10, buffer_cells=2)
        assert result.arrived_cells == 300
        assert result.lost_cells > 0

    def test_bufferless(self):
        # One cell per frame, capacity 1: exactly sustainable.
        frames = np.ones((50, 1), dtype=int)
        result = simulate_cell_level(frames, capacity=1, buffer_cells=0)
        assert result.lost_cells == 0

    def test_empty_traffic(self):
        result = simulate_cell_level(np.zeros((10, 2), int), 5, 5)
        assert result.arrived_cells == 0
        with pytest.raises(SimulationError):
            result.clr

    def test_rejects_bad_shapes(self):
        with pytest.raises(SimulationError):
            simulate_cell_level(np.zeros((0, 2), int), 5, 5)


def _reference_drain_loss(times, capacity, buffer_cells):
    """The original per-cell Python recursion, kept as the oracle."""
    cap = buffer_cells + 1
    lost = 0
    queue = 0
    prev_slots = 0
    for t in times:
        slots = int(np.floor(t * capacity))
        d = slots - prev_slots
        prev_slots = slots
        if d:
            queue = max(queue - d, 0)
        if queue >= cap:
            lost += 1
        else:
            queue += 1
    return lost


class TestVectorizedScanRegression:
    """The chunked numpy scan must count exactly like the plain loop."""

    CASES = [
        ("underloaded", 40, 100, (0, 8)),
        ("heavy_overload", 10, 5, (0, 30)),
        ("bufferless", 12, 0, (0, 10)),
        ("near_critical", 30, 20, (0, 12)),
    ]

    @pytest.mark.parametrize("name,capacity,buffer_cells,draws", CASES)
    def test_counts_equal_reference(self, name, capacity, buffer_cells, draws):
        rng = np.random.default_rng(hash(name) % 2**32)
        frames = rng.integers(draws[0], draws[1], size=(150, 3))
        result = simulate_cell_level(frames, capacity, buffer_cells)
        times = np.sort(
            np.concatenate(
                [
                    deterministic_smoothing_times(frames[:, s])
                    for s in range(frames.shape[1])
                ]
            )
        )
        expected = _reference_drain_loss(times, capacity, buffer_cells)
        assert result.lost_cells == expected
        assert result.arrived_cells == times.shape[0]

    def test_chunk_boundaries_do_not_change_counts(self, monkeypatch):
        # A tiny chunk size forces many vector/fallback transitions;
        # the state handed across each boundary must stay exact.
        import repro.queueing.cell_level as mod

        rng = np.random.default_rng(99)
        frames = rng.integers(0, 25, size=(120, 2))
        baseline = simulate_cell_level(frames, 15, 10)
        monkeypatch.setattr(mod, "_SCAN_CHUNK", 7)
        chunked = simulate_cell_level(frames, 15, 10)
        assert chunked.lost_cells == baseline.lost_cells
        assert chunked.arrived_cells == baseline.arrived_cells

