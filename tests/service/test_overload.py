"""Tests for the overload policy: queue, breaker, and engine wiring.

Everything here must be deterministic on the workload clock — the
shed count and fallback decisions are part of the byte-identity
contract, so no wall-clock time may enter.
"""

import pytest

from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.models import make_s
from repro.resilience.faults import FaultyDecisionTables
from repro.service.engine import REASON_SHED, AdmissionEngine
from repro.service.overload import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    AdmissionQueue,
    CircuitBreaker,
    OverloadPolicy,
    OverloadState,
)
from repro.service.tables import DecisionTableCache


@pytest.fixture
def qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


@pytest.fixture
def model():
    return make_s(1, 0.975)


class TestAdmissionQueue:
    def test_sheds_past_depth(self):
        queue = AdmissionQueue(max_depth=2, decision_seconds=10.0)
        assert queue.offer(0.0)
        assert queue.offer(0.0)
        assert not queue.offer(0.0)  # both slots busy until t=10/20

    def test_drains_completions(self):
        queue = AdmissionQueue(max_depth=1, decision_seconds=5.0)
        assert queue.offer(0.0)
        assert not queue.offer(1.0)
        assert queue.offer(6.0)  # the t=5 completion freed the slot

    def test_zero_decision_time_never_sheds(self):
        queue = AdmissionQueue(max_depth=1, decision_seconds=0.0)
        assert all(queue.offer(0.0) for _ in range(100))

    def test_state_roundtrip_exact(self):
        queue = AdmissionQueue(max_depth=4, decision_seconds=0.3)
        for t in (0.0, 0.1, 0.2):
            queue.offer(t)
        state = queue.state_dict()
        twin = AdmissionQueue(max_depth=4, decision_seconds=0.3)
        twin.restore_state(state)
        assert twin.state_dict() == state
        assert twin.depth == queue.depth
        # Both instances now make identical decisions.
        assert twin.offer(0.25) == queue.offer(0.25)

    def test_validation(self):
        with pytest.raises(ParameterError):
            AdmissionQueue(max_depth=0, decision_seconds=0.0)
        with pytest.raises(ParameterError):
            AdmissionQueue(max_depth=1, decision_seconds=-1.0)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=3)
        assert not breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 1

    def test_cooldown_counts_requests_then_probes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2)
        breaker.record_failure()
        assert not breaker.allow_primary()
        assert not breaker.allow_primary()
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow_primary()  # the probe
        assert breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.recoveries == 1

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1)
        for _ in range(3):
            breaker.record_failure()
        breaker.allow_primary()
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.record_failure()  # single failure reopens
        assert breaker.state == BREAKER_OPEN
        assert breaker.opens == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_state_roundtrip_exact(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5)
        breaker.record_failure()
        breaker.allow_primary()
        state = breaker.state_dict()
        twin = CircuitBreaker(failure_threshold=1, cooldown=5)
        twin.restore_state(state)
        assert twin.state_dict() == state

    def test_restore_rejects_unknown_state(self):
        breaker = CircuitBreaker()
        state = breaker.state_dict()
        state["state"] = "smoldering"
        with pytest.raises(ParameterError, match="breaker state"):
            breaker.restore_state(state)


class TestEngineOverload:
    CAPACITY = 30 * 538.0

    def engine(self, qos, policy=None, tables=None):
        return AdmissionEngine(
            "l",
            self.CAPACITY,
            qos,
            tables=tables if tables is not None else DecisionTableCache(),
            overload=policy,
        )

    def test_shed_decision_shape(self, model, qos):
        engine = self.engine(
            qos, OverloadPolicy(max_queue_depth=1, decision_seconds=100.0)
        )
        first = engine.admit(model, "c0", now=0.0)
        assert first.admitted
        shed = engine.admit(model, "c1", now=1.0)
        assert not shed.admitted
        assert shed.reason == REASON_SHED
        assert shed.effective_bandwidth is None
        # A shed request never touched the link.
        assert engine.occupancy == 1
        assert (engine.admitted, engine.shed) == (1, 1)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf")]
    )
    def test_non_finite_now_rejected_before_the_queue(self, model, qos, bad):
        engine = self.engine(
            qos, OverloadPolicy(max_queue_depth=4, decision_seconds=0.001)
        )
        with pytest.raises(ParameterError, match="finite"):
            engine.admit(model, "bad", now=bad)
        # The queue is untouched: four requests at one instant fill its
        # depth and only the rest are shed.
        decisions = [
            engine.admit(model, f"c{i}", now=10.0) for i in range(6)
        ]
        assert [d.reason == REASON_SHED for d in decisions] == [
            False, False, False, False, True, True
        ]
        assert (engine.admitted, engine.shed) == (4, 2)

    def test_no_overload_policy_keeps_legacy_path(self, model, qos):
        engine = self.engine(qos)
        decision = engine.admit(model, "c0")
        assert decision.admitted
        assert not decision.fallback

    def test_breaker_falls_back_conservatively(self, model, qos):
        tables = DecisionTableCache()
        faulty = FaultyDecisionTables(tables, {1, 2}, "bahadur-rao")
        engine = self.engine(
            qos, OverloadPolicy(breaker_cooldown=2), tables=faulty
        )
        ok = engine.admit(model, "c0", now=0.0)
        assert not ok.fallback

        faulty.current_request = 1
        fb = engine.admit(model, "c1", now=1.0)
        assert fb.fallback
        assert engine.overload.breaker.state == BREAKER_OPEN
        assert engine.fallbacks == 1

        # While open, the primary is skipped entirely — request 2's
        # injected fault never fires because nothing consults it.
        faulty.current_request = 2
        fb2 = engine.admit(model, "c2", now=2.0)
        assert fb2.fallback
        fb3 = engine.admit(model, "c3", now=3.0)
        assert fb3.fallback  # second cooldown request; now HALF_OPEN

        # Cooldown spent; the probe succeeds and the breaker closes.
        faulty.current_request = 4
        probe = engine.admit(model, "c4", now=4.0)
        assert not probe.fallback
        assert engine.overload.breaker.state == BREAKER_CLOSED
        assert engine.overload.breaker.recoveries == 1
        # A fallback decision is also an admitted (or blocked) one.
        assert (engine.admitted, engine.fallbacks) == (5, 3)

    def test_fallback_admits_fewer_than_primary(self, model, qos):
        # Peak-rate is the zero-risk policy: its admissible count is
        # strictly below the statistical-multiplexing boundary.
        tables = DecisionTableCache()
        primary = tables.lookup(
            model, self.CAPACITY, qos, "bahadur-rao"
        ).admissible
        fallback = tables.lookup(
            model, self.CAPACITY, qos, "peak-rate"
        ).admissible
        assert 0 < fallback < primary

    def test_overload_state_roundtrip(self):
        policy = OverloadPolicy(
            max_queue_depth=2, decision_seconds=1.0, breaker_cooldown=3
        )
        state = OverloadState(policy)
        state.queue.offer(0.0)
        state.breaker.record_failure()
        twin = OverloadState(policy)
        twin.restore_state(state.state_dict())
        assert twin.state_dict() == state.state_dict()

    def test_policy_validation(self):
        with pytest.raises(ParameterError):
            OverloadPolicy(max_queue_depth=0)
        with pytest.raises(ParameterError):
            OverloadPolicy(decision_seconds=-0.5)
        with pytest.raises(ParameterError):
            OverloadPolicy(breaker_cooldown=0)

    def test_unknown_fallback_method_rejected_at_construction(self):
        # The breaker exists to absorb lookup failures; a fallback it
        # cannot serve must fail when the policy is built, not at the
        # first fallback decision.
        with pytest.raises(ParameterError, match="fallback_method"):
            OverloadPolicy(fallback_method="nope")
        for method in ("peak-rate", "mean-rate", "effective-bandwidth"):
            assert OverloadPolicy(fallback_method=method)
