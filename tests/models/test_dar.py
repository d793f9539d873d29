"""Unit and statistical tests for the DAR(p) model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.models import make_s
from repro.models.dar import DARModel, _dar1_run_length_path
from repro.models.marginals import (
    GaussianMarginal,
    LognormalMarginal,
    NegativeBinomialMarginal,
)

STD_NORMAL = GaussianMarginal(0.0, 1.0)


class TestConstruction:
    def test_dar1_convenience(self):
        model = DARModel.dar1(0.8, 500.0, 5000.0)
        assert model.order == 1
        assert model.rho == 0.8

    def test_weights_normalized(self):
        model = DARModel(0.5, (0.6, 0.4), 10.0, 4.0)
        assert model.weights.sum() == pytest.approx(1.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(ParameterError):
            DARModel(0.5, (1.2, -0.2), 10.0, 4.0)

    def test_rejects_weights_not_summing_to_one(self):
        with pytest.raises(ParameterError):
            DARModel(0.5, (0.5, 0.4), 10.0, 4.0)

    def test_rejects_rho_one(self):
        with pytest.raises(ParameterError):
            DARModel(1.0, (1.0,), 10.0, 4.0)

    def test_rho_zero_allowed(self):
        model = DARModel(0.0, (1.0,), 10.0, 4.0)
        assert np.allclose(model.acf(5), 0.0)

    def test_rejects_empty_weights(self):
        with pytest.raises(ParameterError):
            DARModel(0.5, (), 10.0, 4.0)


class TestACF:
    def test_dar1_acf_geometric(self):
        model = DARModel.dar1(0.7, 0.0, 1.0)
        lags = np.arange(0, 10)
        assert np.allclose(model.autocorrelation(lags), 0.7**lags)

    def test_dar2_recursion_holds(self):
        model = DARModel(0.8, (0.6, 0.4), 0.0, 1.0)
        r = np.concatenate(([1.0], model.acf(20)))
        for k in range(1, 21):
            expected = 0.8 * (0.6 * r[abs(k - 1)] + 0.4 * r[abs(k - 2)])
            assert r[k] == pytest.approx(expected, rel=1e-12)

    def test_acf_cache_growth_consistent(self):
        model = DARModel(0.8, (0.5, 0.5), 0.0, 1.0)
        short = model.acf(5).copy()
        model.acf(100)
        assert np.allclose(model.acf(5), short)

    def test_srd_metadata(self, dar1):
        assert dar1.hurst == 0.5
        assert not dar1.is_lrd

    def test_variance_time_dar1_closed_form(self, dar1):
        from repro.core.variance_time import variance_time_from_acf

        m = np.array([1, 3, 10, 40])
        closed = dar1.variance_time(m)
        generic = variance_time_from_acf(dar1.acf(39), dar1.variance, m)
        assert np.allclose(closed, generic, rtol=1e-10)

    def test_variance_time_darp_falls_back_to_generic(self):
        model = DARModel(0.8, (0.6, 0.4), 0.0, 2.0)
        v = model.variance_time(np.array([1, 5, 20]))
        assert v[0] == pytest.approx(2.0)
        assert np.all(np.diff(v) > 0)


class TestRunLengthSampler:
    def test_rho_zero_is_iid(self):
        gen = np.random.default_rng(0)
        x = _dar1_run_length_path(0.0, STD_NORMAL, 10_000, gen)
        # lag-1 correlation of iid noise is ~0.
        corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(corr) < 0.05

    def test_exact_length(self):
        gen = np.random.default_rng(1)
        for n in (1, 2, 17, 1000):
            assert _dar1_run_length_path(0.9, STD_NORMAL, n, gen).shape == (n,)

    @given(st.floats(min_value=0.05, max_value=0.97))
    @settings(max_examples=20, deadline=None)
    def test_lag1_correlation_matches_rho(self, rho):
        gen = np.random.default_rng(12345)
        x = _dar1_run_length_path(rho, STD_NORMAL, 120_000, gen)
        corr = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert corr == pytest.approx(rho, abs=0.06)

    def test_run_lengths_geometric_mean(self):
        gen = np.random.default_rng(2)
        rho = 0.9
        x = _dar1_run_length_path(rho, STD_NORMAL, 200_000, gen)
        changes = np.count_nonzero(np.diff(x) != 0)
        mean_run = len(x) / (changes + 1)
        assert mean_run == pytest.approx(1.0 / (1.0 - rho), rel=0.05)


class TestSampling:
    def test_marginal_moments(self, dar1):
        x = dar1.sample_frames(100_000, rng=3)
        assert x.mean() == pytest.approx(500.0, rel=0.02)
        assert x.std() == pytest.approx(np.sqrt(5000.0), rel=0.05)

    def test_marginal_gaussian_shape(self, dar1):
        from scipy import stats

        x = dar1.sample_frames(50_000, rng=4)
        # Distinct values only (runs repeat values).
        distinct = np.unique(x)
        standardized = (distinct - 500.0) / np.sqrt(5000.0)
        _, p = stats.kstest(standardized, "norm")
        assert p > 0.01

    def test_dar2_sample_acf(self):
        model = DARModel(0.8, (0.7, 0.3), 0.0, 1.0)
        x = model.sample_frames(150_000, rng=5)
        from repro.analysis import sample_acf

        observed = sample_acf(x, 3)
        assert np.allclose(observed, model.acf(3), atol=0.03)

    def test_dar3_sample_acf(self):
        model = DARModel(0.73, (0.82, 0.10, 0.08), 0.0, 1.0)
        x = model.sample_frames(150_000, rng=6)
        from repro.analysis import sample_acf

        observed = sample_acf(x, 4)
        assert np.allclose(observed, model.acf(4), atol=0.03)

    def test_aggregate_moments(self, dar1):
        agg = dar1.sample_aggregate(40_000, 10, rng=7)
        assert agg.mean() == pytest.approx(5000.0, rel=0.02)
        assert agg.std() == pytest.approx(np.sqrt(10 * 5000.0), rel=0.1)

    def test_darp_aggregate_moments(self):
        model = DARModel(0.8, (0.7, 0.3), 100.0, 400.0)
        agg = model.sample_aggregate(20_000, 5, rng=8)
        assert agg.mean() == pytest.approx(500.0, rel=0.03)

    def test_deterministic_with_seed(self, dar1):
        assert np.array_equal(
            dar1.sample_frames(100, rng=9), dar1.sample_frames(100, rng=9)
        )


def _reference_aggregate_vstack(model, n_frames, n_sources, generator):
    """The pre-ring-buffer DAR(p) aggregate sampler (the old np.vstack
    implementation), kept verbatim as a byte-identity oracle: the ring
    buffer must consume the generator in exactly the same order and
    produce exactly the same frames."""
    p = model.order
    warmup = min(int(64.0 / max(1.0 - model.rho, 1e-6)) + p, 100_000)
    total_steps = n_frames + warmup
    state = model.marginal.sample(p * n_sources, generator).reshape(
        p, n_sources
    )
    out = np.empty((n_frames, n_sources))
    lags = np.arange(1, p + 1)
    columns = np.arange(n_sources)
    for n in range(total_steps):
        repeat = generator.random(n_sources) < model.rho
        lag_choice = generator.choice(lags, size=n_sources, p=model.weights)
        fresh = model.marginal.sample(n_sources, generator)
        new = np.where(repeat, state[p - lag_choice, columns], fresh)
        state = np.vstack([state[1:], new[None, :]])
        if n >= warmup:
            out[n - warmup] = new
    return out.sum(axis=1)


def _reference_recursion(model, n_frames, generator):
    """The per-step ``_sample_recursion`` loop behind ``sample_frames``
    for p >= 2, kept verbatim as a byte-identity oracle for the block
    resolution that replaced it."""
    p = model.order
    warmup = min(int(64.0 / max(1.0 - model.rho, 1e-6)) + p, 100_000)
    total = n_frames + warmup
    repeat = generator.random(total) < model.rho
    lag_choice = generator.choice(
        np.arange(1, p + 1), size=total, p=model.weights
    )
    fresh = model.marginal.sample(total, generator)
    path = np.empty(total + p)
    path[:p] = model.marginal.sample(p, generator)
    for n in range(total):
        i = n + p
        if repeat[n]:
            path[i] = path[i - lag_choice[n]]
        else:
            path[i] = fresh[n]
    return path[p + warmup :]


def _descending_model(order, rho):
    weights = np.arange(order, 0, -1.0)
    return DARModel(rho, weights / weights.sum(), 20.0, 16.0)


#: (model factory, frames, sources).  The first three are the original
#: short case; the rest cross block and warm-up edges, have long repeat
#: chains, are minimal, or use marginals whose samplers consume the
#: generator in variable amounts.
ORACLE_CASES = [
    pytest.param(
        lambda order=order: _descending_model(order, 0.6), 40, 3,
        id=str(order),
    )
    for order in (2, 3, 4)
] + [
    pytest.param(lambda: make_s(3, 0.975), 5000, 30, id="s3-5000x30"),
    pytest.param(
        lambda: _descending_model(3, 0.999), 3000, 4, id="rho0.999"
    ),
    pytest.param(lambda: _descending_model(2, 0.6), 1, 1, id="1x1"),
    pytest.param(
        lambda: DARModel.with_marginal(
            0.9, (0.2, 0.3, 0.5), NegativeBinomialMarginal(20.0, 60.0)
        ),
        700,
        30,
        id="negbin",
    ),
    pytest.param(
        lambda: DARModel.with_marginal(
            0.9, (0.7, 0.3), LognormalMarginal(20.0, 60.0)
        ),
        700,
        30,
        id="lognormal",
    ),
]


class TestRingBufferRegression:
    @pytest.mark.parametrize("make_model, n_frames, n_sources", ORACLE_CASES)
    def test_byte_identical_to_vstack_path(
        self, make_model, n_frames, n_sources
    ):
        model = make_model()
        expected = _reference_aggregate_vstack(
            model, n_frames, n_sources, np.random.default_rng(31)
        )
        actual = model.sample_aggregate(
            n_frames, n_sources, np.random.default_rng(31)
        )
        assert np.array_equal(actual, expected)

    @pytest.mark.parametrize("make_model, n_frames, n_sources", ORACLE_CASES)
    def test_sample_frames_byte_identical_to_loop(
        self, make_model, n_frames, n_sources
    ):
        model = make_model()
        expected = _reference_recursion(
            model, n_frames, np.random.default_rng(32)
        )
        actual = model.sample_frames(n_frames, np.random.default_rng(32))
        assert np.array_equal(actual, expected)

    def test_aggregate_memory_does_not_grow_with_horizon(self):
        import tracemalloc

        model = make_s(3, 0.975)
        tracemalloc.start()
        try:
            model.sample_aggregate(100_000, 30, np.random.default_rng(33))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A (frames, sources) array alone would be 24 MB.
        assert peak < 8_000_000

    def test_dar1_path_unaffected(self):
        model = DARModel.dar1(0.7, 500.0, 5000.0)
        a = model.sample_aggregate(50, 2, np.random.default_rng(8))
        b = model.sample_aggregate(50, 2, np.random.default_rng(8))
        assert np.array_equal(a, b)
