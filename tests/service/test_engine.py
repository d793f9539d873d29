"""Tests for the event-driven admission engine."""

import pytest

from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.models import AR1Model, make_s
from repro.service.engine import AdmissionEngine
from repro.service.tables import DecisionTableCache


@pytest.fixture
def qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


@pytest.fixture
def dar1_fit():
    return make_s(1, 0.975)


@pytest.fixture
def engine(qos):
    engine = AdmissionEngine(policy="bahadur-rao")
    engine.add_link("oc3", 30 * 538.0, qos)
    return engine


class TestTopology:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ParameterError, match="unknown admission policy"):
            AdmissionEngine(policy="first-fit")

    def test_duplicate_link_rejected(self, engine, qos):
        with pytest.raises(ParameterError, match="already registered"):
            engine.add_link("oc3", 100.0, qos)

    def test_unknown_link_rejected(self, engine, dar1_fit):
        with pytest.raises(ParameterError, match="unknown link"):
            engine.admit("oc12", dar1_fit, "c0")

    def test_links_view_is_a_copy(self, engine):
        view = engine.links
        view.clear()
        assert engine.links


class TestCountPolicy:
    def test_admits_exactly_to_the_boundary(self, engine, dar1_fit):
        boundary = engine.tables.lookup(
            dar1_fit, 30 * 538.0, engine.link("oc3").qos, "bahadur-rao"
        ).admissible
        assert boundary > 0
        for i in range(boundary):
            decision = engine.admit("oc3", dar1_fit, f"c{i}")
            assert decision.admitted, f"blocked below the boundary at {i}"
        overflow = engine.admit("oc3", dar1_fit, "c-overflow")
        assert not overflow.admitted
        assert overflow.reason == "capacity"
        assert engine.occupancy("oc3") == boundary

    def test_release_frees_one_slot(self, engine, dar1_fit):
        boundary = engine.admit("oc3", dar1_fit, "c0").admissible
        for i in range(1, boundary):
            engine.admit("oc3", dar1_fit, f"c{i}")
        assert not engine.admit("oc3", dar1_fit, "blocked").admitted
        engine.release("oc3", "c0")
        assert engine.admit("oc3", dar1_fit, "retry").admitted

    def test_duplicate_connection_rejected(self, engine, dar1_fit):
        engine.admit("oc3", dar1_fit, "c0")
        with pytest.raises(ParameterError, match="already admitted"):
            engine.admit("oc3", dar1_fit, "c0")

    def test_release_unknown_connection_rejected(self, engine):
        with pytest.raises(ParameterError, match="not admitted"):
            engine.release("oc3", "ghost")

    def test_mixing_classes_rejected(self, engine, dar1_fit):
        engine.admit("oc3", dar1_fit, "c0")
        with pytest.raises(ParameterError, match="homogeneous-only"):
            engine.admit("oc3", AR1Model(0.6, 100.0, 400.0), "c1")

    def test_utilization_tracks_admitted_means(self, engine, dar1_fit):
        assert engine.utilization("oc3") == 0.0
        engine.admit("oc3", dar1_fit, "c0")
        engine.admit("oc3", dar1_fit, "c1")
        expected = 2 * dar1_fit.mean / (30 * 538.0)
        assert engine.utilization("oc3") == pytest.approx(expected)
        engine.release("oc3", "c0")
        assert engine.utilization("oc3") == pytest.approx(expected / 2)


class TestEffectiveBandwidthPolicy:
    def test_serves_heterogeneous_mixes(self, qos):
        engine = AdmissionEngine(policy="effective-bandwidth")
        engine.add_link("oc3", 30 * 538.0, qos)
        big = engine.admit("oc3", make_s(1, 0.975), "video-0")
        small = engine.admit("oc3", AR1Model(0.6, 100.0, 400.0), "conf-0")
        assert big.admitted and small.admitted
        assert big.effective_bandwidth > small.effective_bandwidth

    def test_blocks_when_bandwidth_exhausted(self, qos, dar1_fit):
        engine = AdmissionEngine(policy="effective-bandwidth")
        link = engine.add_link("oc3", 30 * 538.0, qos)
        i = 0
        while True:
            decision = engine.admit("oc3", dar1_fit, f"c{i}")
            if not decision.admitted:
                break
            i += 1
        assert i > 0
        assert link.admitted_bandwidth <= link.capacity
        # One charge more would not have fit — the block was tight.
        assert (
            link.admitted_bandwidth + decision.effective_bandwidth
            > link.capacity
        )

    def test_release_restores_bandwidth(self, qos, dar1_fit):
        engine = AdmissionEngine(policy="effective-bandwidth")
        link = engine.add_link("oc3", 30 * 538.0, qos)
        engine.admit("oc3", dar1_fit, "c0")
        engine.release("oc3", "c0")
        assert link.admitted_bandwidth == pytest.approx(0.0)
        assert link.admitted_mean_load == pytest.approx(0.0)
        assert link.occupancy == 0


class TestSharedTables:
    def test_engines_share_one_cache(self, qos, dar1_fit):
        tables = DecisionTableCache()
        first = AdmissionEngine(policy="bahadur-rao", tables=tables)
        second = AdmissionEngine(policy="bahadur-rao", tables=tables)
        first.add_link("a", 30 * 538.0, qos)
        second.add_link("b", 30 * 538.0, qos)
        first.admit("a", dar1_fit, "c0")
        second.admit("b", dar1_fit, "c0")
        assert tables.misses == 1
        assert tables.hits >= 1


class TestRecoveryCacheInvalidation:
    """Regression: journal recovery must drop the id()-keyed caches.

    The hot-path caches key on ``id(model)``.  After recovery swaps
    link state wholesale, a *new* model object can land on a recycled
    ``id()`` — a surviving cache entry would then serve decisions
    against the dead model's fingerprint/decision key.  The tests
    plant poisoned entries (standing in for the recycled-id hazard)
    and assert recovery purges them.
    """

    def test_restore_link_state_purges_decision_caches(
        self, engine, dar1_fit
    ):
        engine.admit("oc3", dar1_fit, "c0")
        assert engine._decision_keys and engine._fingerprints
        snapshot = engine.export_link_state("oc3")

        rogue = make_s(3, 0.950)
        engine._fingerprints[id(rogue)] = "stale-fingerprint"
        engine._decision_keys[(id(rogue), "oc3", engine.policy)] = (
            "stale-key"
        )
        engine.restore_link_state("oc3", snapshot)

        assert not engine._decision_keys
        assert not engine._fingerprints
        assert not engine._key_refs

    def test_post_recovery_decisions_use_true_fingerprint(
        self, engine, qos, dar1_fit
    ):
        boundary = engine.tables.lookup(
            dar1_fit, 30 * 538.0, qos, "bahadur-rao"
        ).admissible
        engine.admit("oc3", dar1_fit, "c0")
        snapshot = engine.export_link_state("oc3")

        # Poison the caches for the very model recovery will re-admit
        # against — the worst-case recycled-id collision.
        engine._fingerprints[id(dar1_fit)] = "stale-fingerprint"
        engine.restore_link_state("oc3", snapshot)

        decision = engine.admit("oc3", dar1_fit, "c1")
        assert decision.admitted
        assert decision.admissible == boundary
        assert engine.occupancy("oc3") == 2
        # The cache re-warmed from the live object, not the poison.
        assert (
            engine._fingerprints.get(id(dar1_fit)) != "stale-fingerprint"
        )

    def test_invalidate_is_idempotent(self, engine, dar1_fit):
        engine.invalidate_decision_caches()
        engine.invalidate_decision_caches()
        assert engine.admit("oc3", dar1_fit, "c0").admitted


class TestModelMeanMemo:
    def test_carried_load_is_the_model_mean_bit_for_bit(self, qos):
        from repro.service.cli import build_class

        # A superposed model re-sums its components on every read.
        video = build_class("video").model
        engine = AdmissionEngine(policy="bahadur-rao")
        link = engine.add_link("oc3", 30 * 538.0, qos)
        expected = 0.0
        for i in range(5):
            assert engine.admit("oc3", video, f"c{i}").admitted
            expected += float(video.mean)
        assert link.admitted_mean_load == expected
        assert all(
            c.mean == float(video.mean) for c in link.connections.values()
        )
        assert engine._means == {id(video): float(video.mean)}

    def test_invalidation_drops_the_memo(self, engine, dar1_fit):
        engine.admit("oc3", dar1_fit, "c0")
        engine._means[id(dar1_fit)] = -1.0
        engine.invalidate_decision_caches()
        assert not engine._means
        engine.admit("oc3", dar1_fit, "c1")
        assert engine.link("oc3").connections["c1"].mean == float(
            dar1_fit.mean
        )
