"""Tests for the workload replay driver.

The load-bearing properties: every decision agrees with the offline
admissible-N boundary, the decision-table cache absorbs all but the
first lookup, and the pooled summary is bit-identical between serial
execution and process-pool sharding on the same seed.
"""

import numpy as np
import pytest

from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.models import AR1Model, make_s
from repro.parallel.backends import warm_pool
from repro.service.replay import (
    LinkStats,
    replay_link,
    replay_workload,
)
from repro.service.stats import summary_to_json
from repro.service.workload import ConnectionClass, WorkloadSpec

CAPACITY = 30 * 538.0


@pytest.fixture
def qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


@pytest.fixture
def classes():
    return (ConnectionClass("dar1", make_s(1, 0.975)),)


@pytest.fixture
def overloaded_spec():
    # ~36 Erlangs against an admissible N of 30: the boundary is hit
    # constantly, which is exactly what the replay must survive.
    return WorkloadSpec(
        n_requests=3_000, arrival_rate=0.4, mean_holding_time=90.0
    )


class TestReplayLink:
    def test_conservation_and_boundary(self, overloaded_spec, classes, qos):
        stats = replay_link(
            overloaded_spec,
            classes,
            capacity=CAPACITY,
            qos=qos,
            policy="bahadur-rao",
            rng=42,
        )
        assert stats.admitted + stats.blocked == stats.n_requests
        assert stats.boundary_violations == 0
        assert stats.peak_occupancy <= stats.admissible
        assert 0.0 < stats.blocking_probability < 1.0
        assert 0.0 < stats.utilization(CAPACITY) <= 1.0

    def test_cache_absorbs_all_but_first_lookup(
        self, overloaded_spec, classes, qos
    ):
        stats = replay_link(
            overloaded_spec,
            classes,
            capacity=CAPACITY,
            qos=qos,
            policy="bahadur-rao",
            rng=42,
        )
        assert stats.cache_misses == 1
        assert stats.cache_hits == overloaded_spec.n_requests
        hit_rate = stats.cache_hits / (stats.cache_hits + stats.cache_misses)
        assert hit_rate > 0.99

    def test_underloaded_link_blocks_nothing(self, classes, qos):
        spec = WorkloadSpec(
            n_requests=500, arrival_rate=0.02, mean_holding_time=90.0
        )  # ~1.8 Erlangs against N = 30
        stats = replay_link(
            spec,
            classes,
            capacity=CAPACITY,
            qos=qos,
            policy="bahadur-rao",
            rng=1,
        )
        assert stats.blocked == 0
        assert stats.boundary_violations == 0

    def test_effective_bandwidth_replays_mixes(self, qos):
        spec = WorkloadSpec(
            n_requests=2_000, arrival_rate=0.5, mean_holding_time=90.0
        )
        classes = (
            ConnectionClass("video", make_s(1, 0.975), weight=1.0),
            ConnectionClass(
                "conference", AR1Model(0.6, 100.0, 400.0), weight=2.0
            ),
        )
        stats = replay_link(
            spec,
            classes,
            capacity=CAPACITY,
            qos=qos,
            policy="effective-bandwidth",
            rng=9,
        )
        assert stats.admitted + stats.blocked == spec.n_requests
        # Two classes, one (capacity, QoS) point: exactly two misses.
        assert stats.cache_misses == 2

    def test_shared_table_path(self, overloaded_spec, classes, qos, tmp_path):
        from repro.service.tables import DecisionTableCache

        path = tmp_path / "tables.jsonl"
        DecisionTableCache(path=path).lookup(
            classes[0].model, CAPACITY, qos, "bahadur-rao"
        )
        stats = replay_link(
            overloaded_spec,
            classes,
            capacity=CAPACITY,
            qos=qos,
            policy="bahadur-rao",
            rng=42,
            table_path=path,
        )
        # The warmed table makes even the first lookup a hit.
        assert stats.cache_misses == 0


class TestReplayWorkload:
    def test_pooled_summary_is_consistent(
        self, overloaded_spec, classes, qos
    ):
        summary = replay_workload(
            overloaded_spec,
            classes,
            n_links=3,
            capacity=CAPACITY,
            qos=qos,
            policy="bahadur-rao",
            rng=7,
        )
        assert summary.n_links == 3
        assert summary.n_requests == 3 * overloaded_spec.n_requests
        assert summary.admitted + summary.blocked == summary.n_requests
        assert summary.boundary_violations == 0
        assert summary.cache_hit_rate > 0.99
        assert summary.offered_erlangs == overloaded_spec.offered_erlangs
        assert len(summary.links) == 3
        assert [s.link_index for s in summary.links] == [0, 1, 2]

    def test_links_are_statistically_independent(
        self, overloaded_spec, classes, qos
    ):
        summary = replay_workload(
            overloaded_spec,
            classes,
            n_links=2,
            capacity=CAPACITY,
            qos=qos,
            rng=7,
        )
        first, second = summary.links
        assert first.blocked != second.blocked or (
            first.carried_load_seconds != second.carried_load_seconds
        )

    def test_serial_runs_are_reproducible(
        self, overloaded_spec, classes, qos
    ):
        kwargs = dict(
            n_links=2, capacity=CAPACITY, qos=qos, policy="bahadur-rao"
        )
        first = replay_workload(overloaded_spec, classes, rng=5, **kwargs)
        second = replay_workload(overloaded_spec, classes, rng=5, **kwargs)
        assert summary_to_json(first) == summary_to_json(second)

    def test_parallel_bit_identical_to_serial(
        self, overloaded_spec, classes, qos
    ):
        kwargs = dict(
            n_links=4, capacity=CAPACITY, qos=qos, policy="bahadur-rao"
        )
        serial = replay_workload(overloaded_spec, classes, rng=11, **kwargs)
        parallel = replay_workload(
            overloaded_spec,
            classes,
            rng=11,
            backend=warm_pool(2),
            **kwargs,
        )
        assert summary_to_json(parallel) == summary_to_json(serial)

    def test_bad_parameters_rejected(self, overloaded_spec, classes, qos):
        with pytest.raises(ParameterError):
            replay_workload(
                overloaded_spec, classes, n_links=0, capacity=CAPACITY,
                qos=qos,
            )
        with pytest.raises(ParameterError):
            replay_workload(
                overloaded_spec, classes, capacity=-1.0, qos=qos
            )


class TestTelemetry:
    def test_counters_and_spans_collected(
        self, overloaded_spec, classes, qos
    ):
        from repro import obs

        obs.enable()
        try:
            obs.reset()
            summary = replay_workload(
                overloaded_spec,
                classes,
                n_links=1,
                capacity=CAPACITY,
                qos=qos,
                rng=2,
            )
            counters = {
                m["name"]: m["value"]
                for m in obs.metrics.snapshot()
                if m["type"] == "counter"
            }
            assert counters["service.admitted"] == summary.admitted
            assert counters["service.blocked"] == summary.blocked
            assert (
                counters["service.requests_replayed"] == summary.n_requests
            )
            assert counters["service.table_misses"] == summary.cache_misses
            assert counters["service.table_hits"] == summary.cache_hits
            names = [s.name for s in obs.records()]
            assert "service.replay" in names
            assert "service.replay.link" in names
            assert "service.table_compute" in names
        finally:
            obs.reset()
            obs.disable()

    @staticmethod
    def _deterministic_metrics():
        """Canonical JSON of the order-independent telemetry subset.

        Counters and occupancy sketches are functions of the replayed
        decisions, so they must merge losslessly across workers;
        admit-latency sketches measure wall-clock and are excluded.
        """
        import json

        from repro import obs

        deterministic = [
            d
            for d in obs.metrics.snapshot()
            if d["type"] == "counter"
            or (
                d["type"] == "sketch"
                and d["name"].startswith("service.occupancy.")
            )
        ]
        return json.dumps(deterministic, sort_keys=True)

    def test_telemetry_bit_identical_serial_vs_parallel(
        self, overloaded_spec, classes, qos
    ):
        from repro import obs

        kwargs = dict(
            n_links=4, capacity=CAPACITY, qos=qos, policy="bahadur-rao"
        )
        obs.enable()
        try:
            obs.reset()
            replay_workload(overloaded_spec, classes, rng=11, **kwargs)
            serial = self._deterministic_metrics()

            obs.reset()
            replay_workload(
                overloaded_spec,
                classes,
                rng=11,
                backend=warm_pool(2),
                **kwargs,
            )
            parallel = self._deterministic_metrics()
        finally:
            obs.reset()
            obs.disable()
        assert serial == parallel

    def test_parallel_spans_share_one_trace(
        self, overloaded_spec, classes, qos
    ):
        from repro import obs

        obs.enable()
        try:
            obs.reset()
            replay_workload(
                overloaded_spec,
                classes,
                n_links=2,
                capacity=CAPACITY,
                qos=qos,
                rng=3,
                backend=warm_pool(2),
            )
            records = obs.records()
            assert records
            trace_ids = {r.trace_id for r in records}
            assert len(trace_ids) == 1
            assert None not in trace_ids
        finally:
            obs.reset()
            obs.disable()


class TestZeroRequestGuards:
    """Regression: empty sweep points report 0.0, never divide by zero.

    Every ratio in the stats chain — per-link blocking/shed, the
    elapsed-time utilization denominator, and the pooled mean
    utilization over an empty link list — must be defined at zero.
    """

    @staticmethod
    def _idle_link(index=0):
        return LinkStats(
            link_index=index,
            n_requests=0,
            admitted=0,
            blocked=0,
            shed=0,
            fallbacks=0,
            peak_occupancy=0,
            admissible=30,
            boundary_violations=0,
            carried_load_seconds=0.0,
            elapsed_seconds=0.0,
            cache_hits=0,
            cache_misses=0,
        )

    def test_idle_link_ratios_are_zero(self):
        stats = self._idle_link()
        assert stats.blocking_probability == 0.0
        assert stats.shed_ratio == 0.0
        assert stats.utilization(CAPACITY) == 0.0

    def test_zero_elapsed_utilization_is_zero(self):
        # A link that decided everything in one clock tick: carried
        # load but a zero-width integration window.
        stats = LinkStats(
            link_index=0,
            n_requests=5,
            admitted=5,
            blocked=0,
            shed=0,
            fallbacks=0,
            peak_occupancy=5,
            admissible=30,
            boundary_violations=0,
            carried_load_seconds=0.0,
            elapsed_seconds=0.0,
            cache_hits=5,
            cache_misses=0,
        )
        assert stats.utilization(CAPACITY) == 0.0

    def test_pooling_no_links_reports_zeros(self, overloaded_spec):
        from repro.service.replay import _pool_links

        summary = _pool_links("bahadur-rao", CAPACITY, overloaded_spec, [])
        assert summary.n_links == 0
        assert summary.n_requests == 0
        assert summary.blocking_probability == 0.0
        assert summary.shed_ratio == 0.0
        assert summary.utilization == 0.0
        assert summary.cache_hit_rate == 0.0

    def test_pooling_idle_links_reports_zeros(self, overloaded_spec):
        from repro.service.replay import _pool_links

        summary = _pool_links(
            "bahadur-rao",
            CAPACITY,
            overloaded_spec,
            [self._idle_link(0), self._idle_link(1)],
        )
        assert summary.n_links == 2
        assert summary.blocking_probability == 0.0
        assert summary.utilization == 0.0
        assert summary_to_json(summary)
