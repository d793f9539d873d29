"""Tests for repro.obs.sketch: accuracy, merging, canonical JSON."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch

QUANTILES = (0.5, 0.9, 0.99, 0.999)


def exact_quantile(data, q):
    """The order statistic the sketch targets: rank floor(q*(n-1))."""
    ordered = np.sort(np.asarray(data, dtype=float))
    return float(ordered[math.floor(q * (len(ordered) - 1))])


class TestRelativeErrorBound:
    @pytest.mark.parametrize("accuracy", [0.01, 0.05])
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda rng: rng.lognormal(3.0, 2.0, size=10_000),
            lambda rng: rng.exponential(50_000.0, size=10_000),
            lambda rng: rng.pareto(1.5, size=10_000) + 1.0,
        ],
        ids=["lognormal", "exponential", "pareto"],
    )
    def test_quantiles_within_bound_on_10k_samples(self, accuracy, sampler):
        rng = np.random.default_rng(20260807)
        data = sampler(rng)
        sketch = QuantileSketch("x", accuracy)
        sketch.observe_many(data)
        for q in QUANTILES:
            exact = exact_quantile(data, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - exact) <= accuracy * exact + 1e-12, (
                f"q={q}: estimate {estimate} vs exact {exact} "
                f"outside {accuracy:.0%}"
            )

    def test_extremes_are_exact(self):
        rng = np.random.default_rng(7)
        data = rng.uniform(1.0, 1e6, size=5_000)
        sketch = QuantileSketch("x")
        sketch.observe_many(data)
        assert sketch.quantile(0.0) == data.min()
        assert sketch.quantile(1.0) == data.max()
        assert sketch.min == data.min()
        assert sketch.max == data.max()

    def test_nine_decades_of_dynamic_range(self):
        data = [10.0**k for k in range(10)] * 100
        sketch = QuantileSketch("x")
        sketch.observe_many(data)
        for q in QUANTILES:
            exact = exact_quantile(data, q)
            assert abs(sketch.quantile(q) - exact) <= 0.01 * exact


class TestIngestion:
    def test_zeros_land_in_zero_bucket(self):
        sketch = QuantileSketch("x")
        sketch.observe_many([0.0, 0.0, 5.0])
        assert sketch.count == 3
        assert sketch.quantile(0.0) == 0.0
        data = sketch.to_dict()
        assert data["zero_count"] == 2

    def test_negative_observation_raises(self):
        sketch = QuantileSketch("x")
        with pytest.raises(ParameterError, match=">= 0"):
            sketch.observe(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_observation_raises(self, bad):
        sketch = QuantileSketch("x")
        with pytest.raises(ParameterError, match="finite"):
            sketch.observe(bad)

    def test_rejected_batch_leaves_sketch_unchanged(self):
        sketch = QuantileSketch("x")
        sketch.observe(3.0)
        before = sketch.to_json()
        with pytest.raises(ParameterError):
            sketch.observe_many([1.0, 2.0, math.nan])
        assert sketch.to_json() == before

    def test_empty_sketch_quantile_is_nan(self):
        sketch = QuantileSketch("x")
        assert math.isnan(sketch.quantile(0.5))
        assert math.isnan(sketch.mean_estimate)

    def test_invalid_quantile_raises(self):
        sketch = QuantileSketch("x")
        sketch.observe(1.0)
        with pytest.raises(ParameterError, match="q must be"):
            sketch.quantile(1.5)

    def test_invalid_accuracy_raises(self):
        with pytest.raises(ParameterError, match="relative_accuracy"):
            QuantileSketch("x", 1.0)


def _bucket_bound(i, accuracy=DEFAULT_RELATIVE_ACCURACY):
    """``gamma**i``: the exact upper bound of bucket ``i``."""
    return ((1.0 + accuracy) / (1.0 - accuracy)) ** i


_BUCKETS = st.integers(min_value=-300, max_value=1500)

#: Values that stress bucketing: zeros, small integers (occupancies),
#: nanosecond-scale latencies, exact bucket bounds ``gamma**i`` and the
#: floats right beside them.
_SKETCH_VALUES = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=200).map(float),
    st.floats(min_value=1e-3, max_value=1e9),
    _BUCKETS.map(_bucket_bound),
    _BUCKETS.map(lambda i: math.nextafter(_bucket_bound(i), 0.0)),
    _BUCKETS.map(lambda i: math.nextafter(_bucket_bound(i), math.inf)),
)


class TestObserveCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_SKETCH_VALUES, max_size=5),
        st.dictionaries(
            _SKETCH_VALUES, st.integers(min_value=0, max_value=50),
            max_size=40,
        ),
    )
    def test_same_state_as_repeated_observe(self, prior, counts):
        batched = QuantileSketch("x")
        repeated = QuantileSketch("x")
        for value in prior:
            batched.observe(value)
            repeated.observe(value)
        batched.observe_counts(counts)
        for value, n in counts.items():
            for _ in range(n):
                repeated.observe(value)
        assert batched.to_json() == repeated.to_json()

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_bad_value_raises_and_leaves_sketch_unchanged(self, bad):
        sketch = QuantileSketch("x")
        sketch.observe_counts({4.0: 3})
        before = sketch.to_json()
        with pytest.raises(ParameterError, match="finite and >= 0"):
            sketch.observe_counts({1.0: 2, bad: 1, 9.0: 4})
        assert sketch.to_json() == before

    def test_negative_count_raises_and_leaves_sketch_unchanged(self):
        sketch = QuantileSketch("x")
        sketch.observe_counts({4.0: 3})
        before = sketch.to_json()
        with pytest.raises(ParameterError, match="counts must be >= 0"):
            sketch.observe_counts({1.0: 2, 9.0: -1})
        assert sketch.to_json() == before


class TestMergeByteIdentity:
    def test_sharded_merge_is_byte_identical_to_unsharded(self):
        rng = np.random.default_rng(42)
        data = rng.lognormal(5.0, 2.0, size=9_000)

        whole = QuantileSketch("x")
        whole.observe_many(data)

        shards = [QuantileSketch("x") for _ in range(4)]
        for i, shard in enumerate(shards):
            shard.observe_many(data[i::4])
        merged = QuantileSketch("x")
        # Deliberately merge out of order: state is order-independent.
        for shard in (shards[2], shards[0], shards[3], shards[1]):
            merged.merge(shard)

        assert merged.to_json() == whole.to_json()
        assert merged.to_json().encode() == whole.to_json().encode()

    def test_merge_dict_roundtrip(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(100.0, size=2_000)
        sketch = QuantileSketch("x")
        sketch.observe_many(data)
        clone = QuantileSketch.from_dict(
            json.loads(sketch.to_json())
        )
        assert clone.to_json() == sketch.to_json()
        assert clone.quantile(0.99) == sketch.quantile(0.99)

    def test_merge_accuracy_mismatch_raises(self):
        a = QuantileSketch("x", 0.01)
        b = QuantileSketch("x", 0.02)
        b.observe(1.0)
        with pytest.raises(ParameterError, match="accuracy"):
            a.merge(b)

    def test_merge_empty_is_noop(self):
        sketch = QuantileSketch("x")
        sketch.observe(2.0)
        before = sketch.to_json()
        sketch.merge(QuantileSketch("x"))
        assert sketch.to_json() == before

    def test_canonical_json_key_order(self):
        sketch = QuantileSketch("x")
        sketch.observe_many([1.0, 10.0, 100.0])
        keys = list(json.loads(sketch.to_json()))
        assert keys == [
            "type",
            "name",
            "relative_accuracy",
            "count",
            "zero_count",
            "min",
            "max",
            "sum_estimate",
            "buckets",
        ]
        buckets = json.loads(sketch.to_json())["buckets"]
        indices = [int(k) for k in buckets]
        assert indices == sorted(indices)


class TestWindow:
    def test_window_subtracts_exactly(self):
        rng = np.random.default_rng(11)
        first = rng.exponential(10.0, size=1_000)
        second = rng.exponential(1000.0, size=1_000)
        sketch = QuantileSketch("x")
        sketch.observe_many(first)
        start = sketch.to_dict()
        sketch.observe_many(second)
        end = sketch.to_dict()

        window = QuantileSketch.window(start, end)
        assert window.count == len(second)
        only_second = QuantileSketch("x")
        only_second.observe_many(second)
        for q in QUANTILES:
            exact = exact_quantile(second, q)
            assert abs(window.quantile(q) - exact) <= 0.011 * exact

    def test_window_rejects_non_prefix(self):
        a = QuantileSketch("x")
        a.observe_many([1.0, 2.0, 3.0])
        b = QuantileSketch("x")
        b.observe_many([1000.0])
        with pytest.raises(ParameterError, match="prefix"):
            QuantileSketch.window(a.to_dict(), b.to_dict())

    def test_window_without_start_is_end(self):
        sketch = QuantileSketch("x")
        sketch.observe_many([5.0, 6.0])
        window = QuantileSketch.window(None, sketch.to_dict())
        assert window.to_json() == sketch.to_json()


class TestRegistryIntegration:
    def test_sketch_registered_and_snapshotted(self):
        registry = MetricsRegistry()
        registry.sketch("lat").observe_many([1.0, 2.0, 3.0])
        (data,) = registry.snapshot()
        assert data["type"] == "sketch"
        assert data["name"] == "lat"
        assert data["count"] == 3

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.sketch("x")
        registry.sketch("y")
        with pytest.raises(TypeError, match="already registered"):
            registry.counter("y")

    def test_accuracy_conflict_raises(self):
        registry = MetricsRegistry()
        registry.sketch("x", 0.01)
        with pytest.raises(TypeError, match="relative_accuracy"):
            registry.sketch("x", 0.05)
        # Asking without an accuracy is fine — any sketch matches.
        assert registry.sketch("x").relative_accuracy == 0.01

    def test_default_accuracy(self):
        registry = MetricsRegistry()
        assert (
            registry.sketch("x").relative_accuracy
            == DEFAULT_RELATIVE_ACCURACY
        )
