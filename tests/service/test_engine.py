"""Tests for the event-driven admission engine."""

import json

import numpy as np
import pytest

from repro.atm.cac import PEAK_SIGMA
from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.models import AR1Model, make_s
from repro.resilience.faults import FaultyDecisionTables
from repro.service.engine import AdmissionDecision, AdmissionEngine
from repro.service.overload import OverloadPolicy
from repro.service.tables import DecisionTableCache, model_fingerprint


@pytest.fixture
def qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


@pytest.fixture
def dar1_fit():
    return make_s(1, 0.975)


@pytest.fixture
def engine(qos):
    return AdmissionEngine("oc3", 30 * 538.0, qos, policy="bahadur-rao")


class TestTopology:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ParameterError, match="unknown admission policy"):
            AdmissionEngine("oc3", 30 * 538.0, policy="first-fit")

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ParameterError, match="capacity"):
            AdmissionEngine("oc3", 0.0)

    def test_decisions_name_the_engine_link(self, engine, dar1_fit):
        assert engine.admit(dar1_fit, "c0").link_id == "oc3"


class TestAdmissionDecision:
    def test_is_an_immutable_named_tuple(self, engine, dar1_fit):
        decision = engine.admit(dar1_fit, "c0")
        with pytest.raises(AttributeError):
            decision.admitted = False
        assert AdmissionDecision._fields == (
            "admitted",
            "link_id",
            "connection_id",
            "policy",
            "reason",
            "admissible",
            "occupancy",
            "effective_bandwidth",
            "fallback",
        )
        fields = tuple(getattr(decision, f) for f in decision._fields)
        assert decision == fields


class TestCountPolicy:
    def test_admits_exactly_to_the_boundary(self, engine, dar1_fit):
        boundary = engine.tables.lookup(
            dar1_fit, 30 * 538.0, engine.qos, "bahadur-rao"
        ).admissible
        assert boundary > 0
        for i in range(boundary):
            decision = engine.admit(dar1_fit, f"c{i}")
            assert decision.admitted, f"blocked below the boundary at {i}"
        overflow = engine.admit(dar1_fit, "c-overflow")
        assert not overflow.admitted
        assert overflow.reason == "capacity"
        assert engine.occupancy == boundary

    def test_release_frees_one_slot(self, engine, dar1_fit):
        boundary = engine.admit(dar1_fit, "c0").admissible
        for i in range(1, boundary):
            engine.admit(dar1_fit, f"c{i}")
        assert not engine.admit(dar1_fit, "blocked").admitted
        engine.release("c0")
        assert engine.admit(dar1_fit, "retry").admitted

    def test_duplicate_connection_rejected(self, engine, dar1_fit):
        engine.admit(dar1_fit, "c0")
        with pytest.raises(ParameterError, match="already admitted"):
            engine.admit(dar1_fit, "c0")

    def test_release_unknown_connection_rejected(self, engine):
        with pytest.raises(ParameterError, match="not admitted"):
            engine.release("ghost")

    def test_mixing_classes_rejected(self, engine, dar1_fit):
        engine.admit(dar1_fit, "c0")
        with pytest.raises(ParameterError, match="homogeneous-only"):
            engine.admit(AR1Model(0.6, 100.0, 400.0), "c1")

    def test_utilization_tracks_admitted_means(self, engine, dar1_fit):
        assert engine.utilization == 0.0
        engine.admit(dar1_fit, "c0")
        engine.admit(dar1_fit, "c1")
        expected = 2 * dar1_fit.mean / (30 * 538.0)
        assert engine.utilization == pytest.approx(expected)
        engine.release("c0")
        assert engine.utilization == pytest.approx(expected / 2)


class TestEffectiveBandwidthPolicy:
    def test_serves_heterogeneous_mixes(self, qos):
        engine = AdmissionEngine(
            "oc3", 30 * 538.0, qos, policy="effective-bandwidth"
        )
        big = engine.admit(make_s(1, 0.975), "video-0")
        small = engine.admit(AR1Model(0.6, 100.0, 400.0), "conf-0")
        assert big.admitted and small.admitted
        assert big.effective_bandwidth > small.effective_bandwidth

    def test_blocks_when_bandwidth_exhausted(self, qos, dar1_fit):
        engine = AdmissionEngine(
            "oc3", 30 * 538.0, qos, policy="effective-bandwidth"
        )
        i = 0
        while True:
            decision = engine.admit(dar1_fit, f"c{i}")
            if not decision.admitted:
                break
            i += 1
        assert i > 0
        assert engine.admitted_bandwidth <= engine.capacity
        # One charge more would not have fit — the block was tight.
        assert (
            engine.admitted_bandwidth + decision.effective_bandwidth
            > engine.capacity
        )

    def test_fallback_admit_charges_the_peak_allocation(self, qos, dar1_fit):
        engine = AdmissionEngine(
            "oc3", 30 * 538.0, qos, policy="effective-bandwidth"
        )
        decision = engine.admit(dar1_fit, "c0", force_fallback=True)
        charge = float(dar1_fit.mean) + float(dar1_fit.std) * PEAK_SIGMA
        assert decision.admitted and decision.fallback
        assert decision.effective_bandwidth == charge
        assert engine.connections["c0"].effective_bandwidth == charge
        assert engine.admitted_bandwidth == charge

    def test_release_restores_bandwidth(self, qos, dar1_fit):
        engine = AdmissionEngine(
            "oc3", 30 * 538.0, qos, policy="effective-bandwidth"
        )
        engine.admit(dar1_fit, "c0")
        engine.release("c0")
        assert engine.admitted_bandwidth == pytest.approx(0.0)
        assert engine.admitted_mean_load == pytest.approx(0.0)
        assert engine.occupancy == 0


class TestSharedTables:
    def test_engines_share_one_cache(self, qos, dar1_fit):
        tables = DecisionTableCache()
        first = AdmissionEngine("a", 30 * 538.0, qos, tables=tables)
        second = AdmissionEngine("b", 30 * 538.0, qos, tables=tables)
        first.admit(dar1_fit, "c0")
        second.admit(dar1_fit, "c0")
        assert tables.misses == 1
        assert tables.hits >= 1


class TestRecoveryCacheInvalidation:
    """Regression: journal recovery must drop the id()-keyed memo.

    The model memo keys on ``id(model)``.  After recovery swaps link
    state wholesale, a *new* model object can land on a recycled
    ``id()`` — a surviving memo entry would then serve decisions
    against the dead model's fingerprint/decision key.  The tests
    plant poisoned entries (standing in for the recycled-id hazard)
    and assert recovery purges them.
    """

    def test_restore_state_purges_decision_caches(self, engine, dar1_fit):
        engine.admit(dar1_fit, "c0")
        assert list(engine._memos) == [id(dar1_fit)]
        snapshot = engine.export_state()

        rogue = make_s(3, 0.950)
        stale = engine._remember(rogue)
        stale.fingerprint = "stale-fingerprint"
        stale.key = "stale-key"
        engine.restore_state(snapshot)

        assert not engine._memos

    def test_post_recovery_decisions_use_true_fingerprint(
        self, engine, qos, dar1_fit
    ):
        boundary = engine.tables.lookup(
            dar1_fit, 30 * 538.0, qos, "bahadur-rao"
        ).admissible
        engine.admit(dar1_fit, "c0")
        snapshot = engine.export_state()

        # Poison the memo for the very model recovery will re-admit
        # against — the worst-case recycled-id collision.
        engine._memos[id(dar1_fit)].fingerprint = "stale-fingerprint"
        engine.restore_state(snapshot)

        decision = engine.admit(dar1_fit, "c1")
        assert decision.admitted
        assert decision.admissible == boundary
        assert engine.occupancy == 2
        # The memo re-warmed from the live object, not the poison.
        fingerprint = model_fingerprint(dar1_fit)
        assert engine._memos[id(dar1_fit)].fingerprint == fingerprint
        assert engine.connections["c1"].fingerprint == fingerprint

    def test_invalidate_is_idempotent(self, engine, dar1_fit):
        engine.invalidate_decision_caches()
        engine.invalidate_decision_caches()
        assert engine.admit(dar1_fit, "c0").admitted


class TestModelMeanMemo:
    def test_carried_load_is_the_model_mean_bit_for_bit(self, qos):
        from repro.service.cli import build_class

        # A superposed model re-sums its components on every read.
        video = build_class("video").model
        engine = AdmissionEngine("oc3", 30 * 538.0, qos)
        expected = 0.0
        for i in range(5):
            assert engine.admit(video, f"c{i}").admitted
            expected += float(video.mean)
        assert engine.admitted_mean_load == expected
        assert all(
            c.mean == float(video.mean) for c in engine.connections.values()
        )
        (memo,) = engine._memos.values()
        assert memo.model is video
        assert memo.mean == float(video.mean)

    def test_invalidation_drops_the_memo(self, engine, dar1_fit):
        engine.admit(dar1_fit, "c0")
        poisoned = engine._memos[id(dar1_fit)]
        poisoned.mean = -1.0
        poisoned.connections.clear()
        engine.invalidate_decision_caches()
        assert not engine._memos
        engine.admit(dar1_fit, "c1")
        assert engine.connections["c1"].mean == float(dar1_fit.mean)
        assert engine.admitted_mean_load == 2 * float(dar1_fit.mean)

    def test_admits_share_one_connection_record(self, engine, dar1_fit):
        engine.admit(dar1_fit, "c0")
        engine.admit(dar1_fit, "c1")
        shared = engine.connections["c0"]
        assert engine.connections["c1"] is shared
        engine.commit_run(
            dar1_fit, np.array([True, True, False]), ["c0"], ["c2", "c3"]
        )
        assert engine.connections["c1"] is shared
        assert engine.connections["c2"] is shared
        assert engine.connections["c3"] is shared


class TestStateTransport:
    """``export_state``/``restore_state`` carry everything the engine
    owns — the mix, the decision counts, the accumulators as stored
    and the overload state — so a restored engine is indistinguishable
    from the one it was taken from."""

    def _busy_engine(self, qos, dar1_fit):
        tables = FaultyDecisionTables(
            DecisionTableCache(), {3, 4}, "bahadur-rao"
        )
        engine = AdmissionEngine(
            "oc3",
            30 * 538.0,
            qos,
            tables=tables,
            overload=OverloadPolicy(
                max_queue_depth=2, decision_seconds=0.7, breaker_cooldown=2
            ),
        )
        for i in range(120):
            tables.current_request = i
            decision = engine.admit(dar1_fit, f"c{i}", now=i * 0.4)
            if decision.admitted and i % 5 == 0:
                engine.release(f"c{i}")
        return engine, tables

    def _state(self, engine):
        return {
            "counts": [
                engine.admitted,
                engine.blocked,
                engine.shed,
                engine.fallbacks,
                engine.released,
                engine.peak_occupancy,
            ],
            "mix": dict(engine.connections),
            "classes": dict(engine.class_counts),
            "bandwidth": engine.admitted_bandwidth.hex(),
            "load": engine.admitted_mean_load.hex(),
            "overload": engine.overload.state_dict(),
        }

    def test_round_trip_is_exact(self, qos, dar1_fit):
        engine, tables = self._busy_engine(qos, dar1_fit)
        # Every count and the breaker moved, so each is checked.
        assert engine.blocked and engine.shed and engine.fallbacks
        assert engine.released and engine.overload.breaker.opens
        assert engine.admitted_mean_load > 0

        twin = AdmissionEngine(
            "oc3",
            30 * 538.0,
            qos,
            tables=tables,
            overload=engine.overload.policy,
        )
        # Through JSON, as a journal snapshot travels.
        twin.restore_state(json.loads(json.dumps(engine.export_state())))
        assert self._state(twin) == self._state(engine)
        assert twin.export_state() == engine.export_state()

        # Both now decide identically.
        for i in range(120, 160):
            tables.current_request = i
            assert twin.admit(dar1_fit, f"c{i}", now=i * 0.4) == (
                engine.admit(dar1_fit, f"c{i}", now=i * 0.4)
            )
        assert self._state(twin) == self._state(engine)
