"""Tests for synthetic connection-workload generation."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.models import AR1Model, make_s
from repro.service.workload import (
    ConnectionClass,
    HOLDING_LAWS,
    Workload,
    WorkloadSpec,
    generate_workload,
    holding_time_distribution,
)


@pytest.fixture
def video_class():
    return ConnectionClass("video", make_s(1, 0.975))


@pytest.fixture
def spec():
    return WorkloadSpec(
        n_requests=2_000, arrival_rate=0.5, mean_holding_time=90.0
    )


class TestSpecValidation:
    def test_offered_erlangs(self, spec):
        assert spec.offered_erlangs == pytest.approx(45.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_requests": 0},
            {"arrival_rate": 0.0},
            {"mean_holding_time": -1.0},
            {"holding": "lognormal"},
            {"tail_gamma": 2.5},
            {"tail_gamma": 1.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        base = dict(
            n_requests=10, arrival_rate=1.0, mean_holding_time=10.0
        )
        base.update(kwargs)
        with pytest.raises(ParameterError):
            WorkloadSpec(**base)

    def test_class_validation(self, video_class):
        with pytest.raises(ParameterError, match="non-empty"):
            ConnectionClass("", video_class.model)
        with pytest.raises(ParameterError):
            ConnectionClass("video", video_class.model, weight=0.0)


class TestGeneration:
    def test_shapes_and_monotone_arrivals(self, spec, video_class):
        workload = generate_workload(spec, [video_class], rng=1)
        assert workload.n_requests == spec.n_requests
        assert workload.holding_times.shape == (spec.n_requests,)
        assert np.all(np.diff(workload.arrival_times) >= 0)
        assert np.all(workload.holding_times > 0)
        assert workload.horizon_seconds == workload.arrival_times[-1]

    def test_same_seed_same_workload(self, spec, video_class):
        first = generate_workload(spec, [video_class], rng=7)
        second = generate_workload(spec, [video_class], rng=7)
        np.testing.assert_array_equal(
            first.arrival_times, second.arrival_times
        )
        np.testing.assert_array_equal(
            first.holding_times, second.holding_times
        )
        np.testing.assert_array_equal(
            first.class_indices, second.class_indices
        )

    def test_single_class_labels_are_zero(self, spec, video_class):
        workload = generate_workload(spec, [video_class], rng=3)
        assert np.all(workload.class_indices == 0)

    def test_empirical_rates_match_spec(self, video_class):
        spec = WorkloadSpec(
            n_requests=20_000, arrival_rate=2.0, mean_holding_time=30.0
        )
        workload = generate_workload(spec, [video_class], rng=11)
        measured_rate = spec.n_requests / workload.horizon_seconds
        assert measured_rate == pytest.approx(2.0, rel=0.05)
        assert workload.holding_times.mean() == pytest.approx(30.0, rel=0.05)

    def test_mix_follows_weights(self, video_class):
        spec = WorkloadSpec(
            n_requests=20_000, arrival_rate=1.0, mean_holding_time=10.0
        )
        classes = [
            video_class,
            ConnectionClass(
                "conference", AR1Model(0.6, 100.0, 400.0), weight=3.0
            ),
        ]
        workload = generate_workload(spec, classes, rng=5)
        share = np.mean(workload.class_indices == 1)
        assert share == pytest.approx(0.75, abs=0.02)

    def test_duplicate_class_names_rejected(self, spec, video_class):
        with pytest.raises(ParameterError, match="unique"):
            generate_workload(spec, [video_class, video_class], rng=1)

    def test_empty_mix_rejected(self, spec):
        with pytest.raises(ParameterError, match="at least one"):
            generate_workload(spec, [], rng=1)


class TestHeavyTailedHolding:
    def test_law_hits_the_spec_mean(self):
        spec = WorkloadSpec(
            n_requests=10,
            arrival_rate=1.0,
            mean_holding_time=90.0,
            holding="heavy-tailed",
            tail_gamma=1.5,
        )
        assert holding_time_distribution(spec).mean == pytest.approx(90.0)

    def test_sampled_mean_approaches_spec(self, video_class):
        spec = WorkloadSpec(
            n_requests=200_000,
            arrival_rate=1.0,
            mean_holding_time=60.0,
            holding="heavy-tailed",
            tail_gamma=1.8,
        )
        workload = generate_workload(spec, [video_class], rng=13)
        # Infinite-variance law: the sample mean converges slowly, so
        # the tolerance is loose — this is a sanity check, not an
        # estimator benchmark.
        assert workload.holding_times.mean() == pytest.approx(60.0, rel=0.25)

    def test_heavier_tail_than_exponential(self, video_class):
        n = 100_000
        base = dict(
            n_requests=n, arrival_rate=1.0, mean_holding_time=60.0
        )
        exp = generate_workload(
            WorkloadSpec(**base), [video_class], rng=17
        )
        heavy = generate_workload(
            WorkloadSpec(**base, holding="heavy-tailed", tail_gamma=1.5),
            [video_class],
            rng=17,
        )
        assert heavy.holding_times.max() > exp.holding_times.max()

    def test_laws_registry(self):
        assert HOLDING_LAWS == ("exponential", "heavy-tailed")


class TestEmptyStreamContract:
    def test_empty_horizon_is_zero(self):
        # Regression: an idle link's empty stream must report a
        # zero-length horizon, not raise on the missing last arrival.
        workload = Workload(
            arrival_times=np.empty(0),
            holding_times=np.empty(0),
            class_indices=np.empty(0, dtype=np.int64),
        )
        assert workload.n_requests == 0
        assert workload.horizon_seconds == 0.0


class TestWorkloadValidation:
    @staticmethod
    def _workload(arrivals, holdings):
        return Workload(
            arrival_times=np.asarray(arrivals, dtype=float),
            holding_times=np.asarray(holdings, dtype=float),
            class_indices=np.zeros(len(arrivals), dtype=np.int64),
        )

    def test_ties_zero_and_negative_zero_accepted(self):
        workload = self._workload([0.0, 1.0, 1.0, 2.0], [0.0, -0.0, 3.0, 1.0])
        assert workload.horizon_seconds == 2.0

    @pytest.mark.parametrize(
        "arrivals, holdings, match",
        [
            ([0.0, -1.0], [1.0, 1.0], "arrival_times must be finite"),
            ([0.0, np.nan], [1.0, 1.0], "arrival_times must be finite"),
            ([0.0, np.inf], [1.0, 1.0], "arrival_times must be finite"),
            ([2.0, 1.0], [1.0, 1.0], "2.0 at index 1"),
            ([0.0, 1.0], [1.0, -np.inf], "holding_times must be finite"),
            ([0.0, 1.0], [np.inf, 1.0], "got inf at index 0"),
        ],
    )
    def test_bad_times_refused(self, arrivals, holdings, match):
        with pytest.raises(ParameterError, match=match):
            self._workload(arrivals, holdings)
