"""Tests for the replication harness."""

import numpy as np
import pytest

from repro.exceptions import ParameterError, SimulationError
from repro.models import AR1Model
from repro.models.base import TrafficModel
from repro.queueing.multiplexer import ATMMultiplexer
from repro.queueing.replication import replicated_clr, replicated_clr_curve


@pytest.fixture
def mux():
    # High utilization so losses are plentiful at test scale.
    model = AR1Model(0.5, 500.0, 5000.0)
    return ATMMultiplexer(model, 10, 515.0, buffer_cells=200.0)


class _SilentModel(TrafficModel):
    """A degenerate model that never emits a cell (zero arrivals)."""

    mean = 0.0
    variance = 1.0

    def autocorrelation(self, lags):
        return np.ones(np.atleast_1d(np.asarray(lags)).shape)

    def sample_frames(self, n_frames, rng=None):
        return np.zeros(int(n_frames))


class TestReplicatedCLR:
    def test_summary_fields(self, mux):
        summary = replicated_clr(mux, 2_000, 4, rng=1)
        assert summary.total_arrived > 0
        assert summary.per_replication.n_replications == 4
        assert 0.0 <= summary.clr < 1.0

    def test_pooled_consistent_with_totals(self, mux):
        summary = replicated_clr(mux, 1_000, 3, rng=2)
        assert summary.clr == pytest.approx(
            summary.total_lost / summary.total_arrived
        )

    def test_deterministic(self, mux):
        a = replicated_clr(mux, 500, 2, rng=3)
        b = replicated_clr(mux, 500, 2, rng=3)
        assert a.clr == b.clr

    def test_replications_differ(self, mux):
        summary = replicated_clr(mux, 1_000, 4, rng=4)
        values = summary.per_replication.values
        assert len(np.unique(values)) > 1

    def test_observed_loss_flag(self, mux):
        summary = replicated_clr(mux, 2_000, 2, rng=5)
        assert summary.observed_loss == (summary.total_lost > 0)


    @pytest.mark.parametrize("batch", [0, -3, 2.5])
    def test_serial_run_rejects_bad_batch(self, mux, batch):
        with pytest.raises(ParameterError, match="batch"):
            replicated_clr(mux, 200, 2, rng=1, batch=batch)


class TestReplicatedCurve:
    def test_monotone_in_buffer(self, mux):
        buffers = np.array([0.0, 100.0, 500.0, 2000.0])
        curve = replicated_clr_curve(mux, buffers, 2_000, 3, rng=6)
        assert np.all(np.diff(curve.clr) <= 1e-15)

    def test_axes(self, mux):
        buffers = np.array([0.0, 400.0])
        curve = replicated_clr_curve(mux, buffers, 500, 2, rng=7, label="x")
        assert curve.label == "x"
        assert np.allclose(
            curve.delay_seconds, buffers * 0.04 / mux.capacity
        )

    def test_log10_handles_zero_loss(self, mux):
        buffers = np.array([1e9])  # absurd buffer: no loss
        curve = replicated_clr_curve(mux, buffers, 500, 2, rng=8)
        assert curve.clr[0] == 0.0
        assert np.isneginf(curve.log10_clr()[0])

    def test_zero_buffer_matches_marginal_overflow(self):
        # At B = 0, CLR = E[(S - C)^+] / E[S] with S the aggregate
        # Gaussian frame: compare against the closed form.
        from scipy import stats

        model = AR1Model(0.0, 500.0, 5000.0)
        n, c = 20, 520.0
        mux = ATMMultiplexer(model, n, c, buffer_cells=0.0)
        curve = replicated_clr_curve(
            mux, np.array([0.0]), 30_000, 4, rng=9
        )
        sd = np.sqrt(n * 5000.0)
        z = (n * c - n * 500.0) / sd
        expected = sd * (
            stats.norm.pdf(z) - z * stats.norm.sf(z)
        ) / (n * 500.0)
        assert curve.clr[0] == pytest.approx(expected, rel=0.15)


class TestProgressFinishOnFailure:
    """The progress line must be closed out even when a replication
    raises mid-loop (regression: ``finish()`` was skipped on error)."""

    class _ExplodingModel(TrafficModel):
        mean = 500.0
        variance = 5000.0

        def __init__(self):
            super().__init__()
            self.calls = 0

        def autocorrelation(self, lags):
            return np.ones(np.atleast_1d(np.asarray(lags)).shape)

        def sample_frames(self, n_frames, rng=None):
            return np.full(int(n_frames), 500.0)

        def sample_aggregate(self, n_frames, n_sources, rng=None):
            self.calls += 1
            if self.calls >= 2:
                raise SimulationError("boom on replication 2")
            return np.full(int(n_frames), 500.0 * n_sources)

    @pytest.fixture
    def progress_lines(self):
        import io

        from repro.obs import progress

        stream = io.StringIO()
        original = progress.ProgressReporter.__init__

        def patched(self, total, label="", *, stream_=stream, **kwargs):
            kwargs["stream"] = stream_
            original(self, total, label, **kwargs)

        progress.enable_progress()
        progress.ProgressReporter.__init__ = patched
        yield stream
        progress.ProgressReporter.__init__ = original
        progress.disable_progress()

    def test_replicated_clr_finishes_reporter(self, progress_lines):
        mux = ATMMultiplexer(
            self._ExplodingModel(), 5, 510.0, buffer_cells=100.0
        )
        with pytest.raises(SimulationError, match="boom"):
            replicated_clr(mux, 100, 3, rng=1)
        assert "done in" in progress_lines.getvalue()

    def test_replicated_clr_curve_finishes_reporter(self, progress_lines):
        mux = ATMMultiplexer(
            self._ExplodingModel(), 5, 510.0, buffer_cells=100.0
        )
        with pytest.raises(SimulationError, match="boom"):
            replicated_clr_curve(mux, np.array([0.0]), 100, 3, rng=1)
        assert "done in" in progress_lines.getvalue()


class TestResilienceIntegration:
    def test_summary_defaults_not_degraded(self, mux):
        summary = replicated_clr(mux, 500, 2, rng=1)
        assert summary.degraded is False
        assert summary.n_failed == 0
        assert summary.n_retried == 0
        assert summary.n_resumed == 0
        assert summary.failures == ()

    def test_resilience_kwarg_matches_legacy(self, mux):
        from repro.resilience import ResiliencePolicy

        legacy = replicated_clr(mux, 500, 2, rng=3)
        supervised = replicated_clr(
            mux, 500, 2, rng=3, resilience=ResiliencePolicy()
        )
        assert supervised.clr == legacy.clr

    def test_curve_defaults_not_degraded(self, mux):
        curve = replicated_clr_curve(
            mux, np.array([0.0, 100.0]), 500, 2, rng=2
        )
        assert curve.degraded is False
        assert curve.n_failed == 0


class TestZeroArrivalGuard:
    @pytest.fixture
    def silent_mux(self):
        return ATMMultiplexer(
            _SilentModel(), 5, 100.0, buffer_cells=50.0
        )

    def test_replicated_clr_raises_clearly(self, silent_mux):
        with pytest.raises(SimulationError, match="no arrivals"):
            replicated_clr(silent_mux, 100, 3, rng=1)

    def test_no_nan_warning_leaks(self, silent_mux):
        # The old code divided lost / arrived first: NaNs plus a
        # runtime warning.  Now it must fail before the division.
        with np.errstate(invalid="raise"):
            with pytest.raises(SimulationError):
                replicated_clr(silent_mux, 100, 2, rng=2)

    def test_curve_raises_clearly(self, silent_mux):
        with pytest.raises(SimulationError, match="no cells arrived"):
            replicated_clr_curve(
                silent_mux, np.array([0.0, 10.0]), 100, 2, rng=3
            )


class TestBufferValidation:
    def test_empty_buffers_rejected(self, mux):
        with pytest.raises(ParameterError, match="buffer_values"):
            replicated_clr_curve(mux, [], 100, 1, rng=1)

    def test_negative_buffers_rejected(self, mux):
        with pytest.raises(ParameterError, match="buffer_values"):
            replicated_clr_curve(mux, [100.0, -1.0], 100, 1, rng=1)

    def test_nan_buffers_rejected(self, mux):
        with pytest.raises(ParameterError, match="finite"):
            replicated_clr_curve(mux, [0.0, np.nan], 100, 1, rng=1)
