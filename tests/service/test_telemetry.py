"""Tests for the per-link telemetry recorders of the admission engine.

The contract: recording locally and flushing in bulk leaves the
registry in exactly the state per-observation recording would — the
counters, and the ``service.occupancy.<link>`` sketch byte for byte —
while the latency buffer stays bounded.
"""

import pytest

from repro import obs
from repro.atm.qos import QoSRequirement
from repro.models import make_s
from repro.obs.sketch import QuantileSketch
from repro.service import telemetry as service_telemetry
from repro.service.engine import REASON_SHED, AdmissionEngine
from repro.service.overload import OverloadPolicy
from repro.service.tables import DecisionTableCache

CAPACITY = 30 * 538.0


@pytest.fixture
def qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


@pytest.fixture
def model():
    return make_s(1, 0.975)


@pytest.fixture
def enabled():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def _registry():
    return {d["name"]: d for d in obs.metrics.snapshot()}


def _drive_by_hand(engines, model, n_requests):
    """Admit a deterministic stream round-robin over ``engines``
    (releasing every third admitted connection) and return the
    decisions and the release count."""
    decisions = []
    released = 0
    admitted = {engine.link_id: [] for engine in engines}
    for i in range(n_requests):
        engine = engines[i % len(engines)]
        decision = engine.admit(model, f"c{i}", now=i * 0.25)
        decisions.append(decision)
        if decision.admitted:
            admitted[engine.link_id].append(f"c{i}")
        if i % 3 == 2 and admitted[engine.link_id]:
            engine.release(admitted[engine.link_id].pop(0))
            released += 1
    return decisions, released


class TestRecorderMatchesReference:
    def test_flushed_registry_equals_per_observation_reference(
        self, enabled, qos, model, monkeypatch
    ):
        # A tiny fold size exercises many latency folds.
        monkeypatch.setattr(service_telemetry, "LATENCY_FOLD", 7)
        # Two links, one engine each, sharing one table cache.
        tables = DecisionTableCache()
        link_ids = ["east", "west"]
        engines = [
            AdmissionEngine(
                link_id,
                CAPACITY,
                qos,
                tables=tables,
                overload=OverloadPolicy(
                    max_queue_depth=2, decision_seconds=0.6
                ),
            )
            for link_id in link_ids
        ]
        decisions, released = _drive_by_hand(engines, model, 1_500)
        for engine in engines:
            engine.flush_telemetry()

        shed = [d for d in decisions if d.reason == REASON_SHED]
        decided = [d for d in decisions if d.reason != REASON_SHED]
        assert shed and decided
        assert any(d.admitted for d in decided)
        assert any(not d.admitted for d in decided)

        registry = _registry()
        expected_counters = {
            "service.admitted": sum(d.admitted for d in decided),
            "service.blocked": sum(not d.admitted for d in decided),
            "service.shed": len(shed),
            "service.released": released,
            # Each decision that was not shed made one table lookup;
            # only the first one missed.
            "service.table_hits": len(decided) - 1,
            "service.table_misses": 1,
        }
        counters = {
            name: d["value"]
            for name, d in registry.items()
            if d["type"] == "counter"
        }
        assert counters == expected_counters

        for link_id in link_ids:
            reference = QuantileSketch(f"service.occupancy.{link_id}")
            for d in decisions:
                if d.link_id == link_id:
                    reference.observe(d.occupancy)
            flushed = QuantileSketch.from_dict(
                registry[f"service.occupancy.{link_id}"]
            )
            assert flushed.to_json() == reference.to_json()
            assert registry[f"service.admit_latency_ns.{link_id}"][
                "count"
            ] == sum(1 for d in decided if d.link_id == link_id)
        assert registry["service.admit_latency_ns"]["count"] == len(decided)

    def test_latency_buffer_stays_bounded(self, enabled, qos, model):
        engine = AdmissionEngine("l", CAPACITY, qos)
        n = 2 * service_telemetry.LATENCY_FOLD + 5
        for i in range(n):
            engine.admit(model, f"c{i}")
            if engine.occupancy > 10:
                engine.release(next(iter(engine.connections)))
            assert len(engine.recorder.latencies) < (
                service_telemetry.LATENCY_FOLD
            )
        assert engine.recorder.latency.count + len(
            engine.recorder.latencies
        ) == n

    def test_flush_publishes_each_decision_once(self, enabled, qos, model):
        engine = AdmissionEngine("l", CAPACITY, qos)
        for i in range(5):
            engine.admit(model, f"c{i}")
        engine.flush_telemetry()
        first = obs.metrics.snapshot()
        engine.flush_telemetry()
        assert obs.metrics.snapshot() == first
        engine.admit(model, "c5")
        engine.flush_telemetry()
        counters = {
            d["name"]: d["value"]
            for d in obs.metrics.snapshot()
            if d["type"] == "counter"
        }
        assert counters["service.admitted"] == 6
        assert counters["service.table_hits"] == 5

    def test_shared_cache_publishes_hits_once(self, enabled, qos, model):
        tables = DecisionTableCache()
        engines = [
            AdmissionEngine(f"l{index}", CAPACITY, qos, tables=tables)
            for index in range(2)
        ]
        for engine in engines:
            for i in range(4):
                engine.admit(model, f"c{i}")
        for engine in engines:
            engine.flush_telemetry()
        counters = {
            d["name"]: d["value"]
            for d in obs.metrics.snapshot()
            if d["type"] == "counter"
        }
        assert counters["service.table_hits"] == tables.hits == 7

    def test_disabled_records_and_publishes_nothing(self, qos, model):
        obs.reset()
        engine = AdmissionEngine("l", CAPACITY, qos)
        for i in range(5):
            engine.admit(model, f"c{i}")
        engine.release("c0")
        assert engine.recorder.admitted == engine.recorder.released == 0
        engine.flush_telemetry()
        assert obs.metrics.snapshot() == []
        # Hits made while disabled are not published later either.
        obs.enable()
        try:
            engine.flush_telemetry()
            assert obs.metrics.snapshot() == []
        finally:
            obs.disable()
            obs.reset()


class TestFrontendFlushPoints:
    def test_stats_republish_and_close_publish(self, enabled, qos, model):
        from repro.service.frontend import AdmissionFrontend
        from repro.service.workload import ConnectionClass

        frontend = AdmissionFrontend(
            [ConnectionClass("dar1", model)],
            ["a", "b"],
            capacity=CAPACITY,
            qos=qos,
            n_shards=2,
        )

        def counters():
            return {
                d["name"]: d["value"]
                for d in obs.metrics.snapshot()
                if d["type"] == "counter"
            }

        for i in range(6):
            frontend.admit("ab"[i % 2], "dar1", f"c{i}")
        # Recorded locally until a flush point.
        assert "service.admitted" not in counters()
        frontend.stats()
        assert counters()["service.admitted"] == 6
        assert counters()["service.table_hits"] == 6

        frontend.republish(frontend.table_text)
        frontend.admit("a", "dar1", "c6")
        frontend.release("a", "c0")
        frontend.close()
        after = counters()
        assert after["service.admitted"] == 7
        assert after["service.released"] == 1
        assert after["service.table_hits"] == 7
