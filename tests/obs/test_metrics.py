"""Tests for repro.obs.metrics: instruments, registry, no-op path."""

from __future__ import annotations

import threading

import pytest

import repro.obs as obs
from repro.obs import metrics
from repro.obs.metrics import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_accumulates(self):
        c = Counter("frames")
        c.add()
        c.add(41)
        assert c.value == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            Counter("x").add(-1)

    def test_to_dict(self):
        c = Counter("frames")
        c.add(7)
        assert c.to_dict() == {
            "type": "counter",
            "name": "frames",
            "value": 7.0,
        }


class TestGauge:
    def test_last_value_wins(self):
        g = Gauge("util")
        assert g.value is None
        g.set(0.5)
        g.set(0.87)
        assert g.value == 0.87


class TestRegistry:
    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_snapshot_sorted_and_plain(self):
        reg = MetricsRegistry()
        reg.counter("b").add(1)
        reg.counter("a").add(2)
        reg.gauge("z").set(3)
        snap = reg.snapshot()
        assert [m["name"] for m in snap] == ["a", "b", "z"]
        assert all(isinstance(m, dict) for m in snap)

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").add(1)
        reg.reset()
        assert reg.snapshot() == []


class TestModuleHelpers:
    def test_disabled_helpers_record_nothing(self):
        assert not obs.is_enabled()
        metrics.reset_metrics()
        metrics.add("frames", 100)
        metrics.set_gauge("util", 0.9)
        metrics.observe_sketch("busy", 4)
        metrics.observe_sketch_many("busy", [1, 2])
        assert metrics.snapshot() == []

    def test_enabled_helpers_record(self, telemetry):
        metrics.add("frames", 100)
        metrics.add("frames", 20)
        metrics.set_gauge("util", 0.9)
        metrics.observe_sketch_many("busy", [1, 8])
        snap = {m["name"]: m for m in metrics.snapshot()}
        assert snap["frames"]["value"] == 120
        assert snap["util"]["value"] == 0.9
        assert snap["busy"]["count"] == 2

    def test_counter_thread_safety(self, telemetry):
        def work():
            for _ in range(1000):
                metrics.add("hits")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.counter("hits").value == 4000


class TestMergeSnapshot:
    def test_counters_add_and_gauges_adopt(self, telemetry):
        from repro.obs import metrics

        metrics.add("cells_lost", 3)
        metrics.merge_snapshot(
            [
                {"type": "counter", "name": "cells_lost", "value": 2.0},
                {"type": "gauge", "name": "utilization", "value": 0.9},
            ]
        )
        snap = {d["name"]: d for d in metrics.snapshot()}
        assert snap["cells_lost"]["value"] == 5.0
        assert snap["utilization"]["value"] == 0.9

    def test_disabled_is_noop(self):
        from repro.obs import metrics, spans

        assert not spans.is_enabled()
        metrics.merge_snapshot(
            [{"type": "counter", "name": "ghost", "value": 9.0}]
        )
        assert all(d["name"] != "ghost" for d in metrics.snapshot())

    def test_empty_snapshot_is_noop(self, telemetry):
        from repro.obs import metrics

        metrics.add("hits", 1)
        before = metrics.snapshot()
        metrics.merge_snapshot([])
        assert metrics.snapshot() == before

    def test_zero_valued_counter_still_registers(self, telemetry):
        from repro.obs import metrics

        # A worker that saw zero boundary violations must still
        # register the instrument, so merged and serial snapshots
        # expose the same metric set.
        metrics.merge_snapshot(
            [{"type": "counter", "name": "violations", "value": 0.0}]
        )
        snap = {d["name"]: d for d in metrics.snapshot()}
        assert snap["violations"]["value"] == 0.0

    def test_duplicate_name_with_mismatched_type_raises(self, telemetry):
        from repro.obs import metrics

        metrics.add("busy", 1)
        with pytest.raises(TypeError, match="already registered"):
            metrics.merge_snapshot(
                [
                    {
                        "type": "sketch",
                        "name": "busy",
                        "relative_accuracy": 0.01,
                        "count": 1,
                        "zero_count": 0,
                        "min": 2.0,
                        "max": 2.0,
                        "sum_estimate": 2.0,
                        "buckets": {},
                    }
                ]
            )

    def test_sketch_snapshots_merge(self, telemetry):
        from repro.obs import metrics

        metrics.observe_sketch_many("lat", [1.0, 2.0])
        foreign = {
            "type": "sketch",
            "name": "lat",
            "relative_accuracy": 0.01,
            "count": 2,
            "zero_count": 0,
            "min": 10.0,
            "max": 20.0,
            "sum_estimate": 30.0,
            "buckets": {},
        }
        metrics.merge_snapshot([foreign])
        sketch = metrics.sketch("lat")
        assert sketch.count == 4
        assert sketch.max == 20.0


class TestBusyPeriodSketch:
    def test_traced_run_records_one_observation_per_busy_period(
        self, telemetry
    ):
        import numpy as np

        from repro.queueing.workload import simulate_finite_buffer

        # C = 10 cells/frame: the buffer is non-empty after frames 0-7,
        # frame 10 and frames 12-13 — busy periods of 8, 1 and 2.
        arrivals = [12.0] * 7 + [0.0] * 3 + [11.0, 0.0, 12.0, 12.0, 0.0]
        simulate_finite_buffer(np.array(arrivals), 10.0, 100.0)
        busy = metrics.sketch("busy_period_frames")
        assert busy.count == 3
        assert (busy.min, busy.max) == (1.0, 8.0)
