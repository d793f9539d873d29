"""Tests for the one dispatch loop, driven by a scripted session.

The session answers each wait from a script and a fake clock, so every
timing rule of the loop — the wait it asks for, when it declares a
hang, what it does with a fenced attempt's late result, when it
recycles a pool — is checked exactly, with no process and no sleep.
"""

from collections import namedtuple
from contextlib import contextmanager

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import metrics
from repro.parallel import SerialBackend, WorkerPayload
from repro.parallel.dispatch import Hang, dispatch

Payload = namedtuple("Payload", "index attempt")
Result = namedtuple("Result", "index attempt")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class ScriptedSession:
    """Each wait pops ``(seconds, result)``: advance the clock by
    ``seconds``, then answer ``result`` (None: the wait timed out)."""

    def __init__(self, clock, script, log=None):
        self.clock = clock
        self.script = list(script)
        self.log = log if log is not None else []
        self.waits = []

    def submit(self, payload):
        self.log.append(("submit", payload.index, payload.attempt))

    def next_completed(self, timeout=None):
        self.log.append("wait")
        self.waits.append(timeout)
        seconds, result = self.script.pop(0)
        self.clock.now += seconds
        return result


class ScriptedBackend:
    name = "scripted"
    jobs = 1

    def __init__(self, session):
        self._session = session
        self.recycled = 0

    @contextmanager
    def session(self):
        yield self._session

    def recycle(self):
        self.recycled += 1


class NoRecycleBackend(ScriptedBackend):
    recycle = None


@pytest.fixture
def telemetry():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def drain(backend, clock, submits, *, stop=None, **options):
    """Submit ``submits`` at t=0, then collect every event."""
    with dispatch(backend, clock=clock, **options) as loop:
        for key in submits:
            loop.submit(Payload(*key))
        return list(loop.events(stop=stop))


class TestWait:
    def test_heartbeat_cut_to_earliest_deadline_and_floored(self):
        clock = FakeClock()
        session = ScriptedSession(
            clock,
            [(0.5, None), (0.3, None), (0.1995, None), (0.0, Result(0, 0))],
        )
        drain(
            ScriptedBackend(session),
            clock,
            [(0, 0)],
            timeout=1.0,
            heartbeat=0.5,
        )
        first, second, third, fourth = session.waits
        assert first == 0.5  # the heartbeat: the deadline is further off
        assert second == pytest.approx(0.5)  # both 0.5 away
        assert third == pytest.approx(0.2)  # cut to the deadline
        assert fourth == 0.001  # 0.5 ms left: floored at 1 ms

    def test_earliest_deadline_over_all_live_attempts(self):
        clock = FakeClock()
        session = ScriptedSession(
            clock, [(0.0, Result(1, 0)), (0.0, Result(0, 0))]
        )
        with dispatch(
            ScriptedBackend(session), clock=clock, timeout=1.0
        ) as loop:
            loop.submit(Payload(0, 0))
            clock.now = 0.25
            loop.submit(Payload(1, 0))
            events = list(loop.events())
        assert events == [Result(1, 0), Result(0, 0)]
        # At t = 0.25, (0, 0) has 0.75 s left and (1, 0) a full second:
        # the wait is the earlier deadline, before and after (1, 0)
        # returns.
        assert session.waits == [pytest.approx(0.75), pytest.approx(0.75)]

    def test_no_heartbeat_and_no_timeout_blocks(self):
        clock = FakeClock()
        session = ScriptedSession(clock, [(7.0, Result(0, 0))])
        drain(ScriptedBackend(session), clock, [(0, 0)])
        assert session.waits == [None]

    def test_heartbeat_alone_is_the_wait(self):
        clock = FakeClock()
        session = ScriptedSession(
            clock, [(0.5, None), (0.5, None), (0.2, Result(0, 0))]
        )
        events = drain(
            ScriptedBackend(session), clock, [(0, 0)], heartbeat=0.5
        )
        # Without a timeout a quiet wait declares nothing.
        assert events == [Result(0, 0)]
        assert session.waits == [0.5, 0.5, 0.5]


class TestHangs:
    def test_notices_in_sorted_order_and_only_when_overdue(self):
        clock = FakeClock()
        session = ScriptedSession(
            clock, [(0.5, None), (0.0, None), (1.0, None)]
        )
        backend = ScriptedBackend(session)
        with dispatch(backend, clock=clock, timeout=1.0) as loop:
            for key in [(2, 0), (0, 0), (1, 0)]:
                loop.submit(Payload(*key))
            clock.now = 1.0
            loop.submit(Payload(3, 0))
            events = list(loop.events())
            assert loop.stale == {(0, 0), (1, 0), (2, 0), (3, 0)}
        # (3, 0), submitted at t = 1, is 0.5 s old at the first scan
        # and 1.5 s old at the third.
        assert events == [
            Hang(0, 0, 1.5),
            Hang(1, 0, 1.5),
            Hang(2, 0, 1.5),
            Hang(3, 0, 2.5),
        ]

    def test_late_fenced_result_dropped_and_counted(self, telemetry):
        clock = FakeClock()
        session = ScriptedSession(
            clock, [(1.5, None), (0.5, Result(0, 0)), (0.1, Result(0, 1))]
        )
        backend = ScriptedBackend(session)
        events = []
        with dispatch(
            backend, clock=clock, timeout=1.0, stale_metric="test.stale"
        ) as loop:
            loop.submit(Payload(0, 0))
            for event in loop.events():
                events.append(event)
                if isinstance(event, Hang):
                    loop.submit(Payload(0, event.attempt + 1))
        # The hung attempt's late result never reaches the caller.
        assert events == [Hang(0, 0, 1.5), Result(0, 1)]
        assert metrics.counter("test.stale").value == 1
        # It did return, so its worker is free: no recycle.
        assert backend.recycled == 0


class TestRecycle:
    def test_fenced_attempt_that_never_returned_recycles(self, telemetry):
        clock = FakeClock()
        session = ScriptedSession(clock, [(1.5, None)])
        backend = ScriptedBackend(session)
        events = drain(
            backend,
            clock,
            [(0, 0)],
            timeout=1.0,
            recycle_metric="test.recycled",
        )
        assert events == [Hang(0, 0, 1.5)]
        assert backend.recycled == 1
        assert metrics.counter("test.recycled").value == 1

    def test_recycles_when_the_body_raises(self):
        clock = FakeClock()
        session = ScriptedSession(clock, [(1.5, None)])
        backend = ScriptedBackend(session)
        with pytest.raises(RuntimeError, match="caller policy"):
            with dispatch(backend, clock=clock, timeout=1.0) as loop:
                loop.submit(Payload(0, 0))
                for event in loop.events():
                    raise RuntimeError("caller policy gave up")
        assert backend.recycled == 1

    def test_no_recycle_without_a_fenced_attempt(self):
        clock = FakeClock()
        session = ScriptedSession(clock, [(0.1, Result(0, 0))])
        backend = ScriptedBackend(session)
        with pytest.raises(RuntimeError):
            with dispatch(backend, clock=clock, timeout=1.0) as loop:
                loop.submit(Payload(0, 0))
                list(loop.events())
                raise RuntimeError("after the last result")
        assert backend.recycled == 0

    def test_backend_without_recycle(self):
        clock = FakeClock()
        session = ScriptedSession(clock, [(1.5, None)])
        events = drain(
            NoRecycleBackend(session), clock, [(0, 0)], timeout=1.0
        )
        assert events == [Hang(0, 0, 1.5)]


class TestStop:
    def test_stop_checked_before_each_wait(self):
        clock = FakeClock()
        log = []
        session = ScriptedSession(
            clock, [(0.0, Result(0, 0)), (0.0, Result(1, 0))], log
        )
        answers = iter([False, True])

        def stop():
            log.append("stop")
            return next(answers)

        events = drain(
            ScriptedBackend(session), clock, [(0, 0), (1, 0)], stop=stop
        )
        assert events == [Result(0, 0)]
        assert log == [
            ("submit", 0, 0),
            ("submit", 1, 0),
            "stop",
            "wait",
            "stop",
        ]

    def test_iteration_ends_when_no_attempt_is_live(self):
        clock = FakeClock()
        log = []
        session = ScriptedSession(clock, [(0.0, Result(0, 0))], log)
        drain(
            ScriptedBackend(session),
            clock,
            [(0, 0)],
            stop=lambda: log.append("stop") or False,
        )
        assert log == [("submit", 0, 0), "stop", "wait"]


def _draw(index, generator):
    return float(generator.integers(0, 1000)), 1.0


def _draw_payload(index, attempt=0):
    return WorkerPayload(
        index=index,
        attempt=attempt,
        task=_draw,
        generator=np.random.default_rng(index),
        health_check=False,
    )


class TestSerialBackend:
    def test_results_lowest_index_first(self):
        with dispatch(SerialBackend()) as loop:
            for index in (2, 0, 1):
                loop.submit(_draw_payload(index))
            results = list(loop.events())
        # The lowest pending (index, attempt) runs first, whatever the
        # submission order — the tie rule of the pool session.
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.value[0] for r in results] == [
            float(np.random.default_rng(i).integers(0, 1000))
            for i in (0, 1, 2)
        ]

    def test_retry_runs_before_later_indices(self):
        keys = []
        with dispatch(SerialBackend()) as loop:
            for index in range(3):
                loop.submit(_draw_payload(index))
            for result in loop.events():
                keys.append((result.index, result.attempt))
                if keys[-1] == (0, 0):
                    # Submitted after (1, 0) and (2, 0), as a retry is.
                    loop.submit(_draw_payload(0, attempt=1))
        assert keys == [(0, 0), (0, 1), (1, 0), (2, 0)]


class CountingClock(FakeClock):
    def __init__(self):
        super().__init__()
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now


class TestClockReads:
    def test_submit_reads_the_clock_only_with_a_timeout(self):
        reads = {}
        for timeout in (None, 1.0):
            clock = CountingClock()
            backend = ScriptedBackend(ScriptedSession(clock, []))
            with dispatch(backend, clock=clock, timeout=timeout) as loop:
                for index in range(3):
                    loop.submit(Payload(index, 0))
                reads[timeout] = clock.reads
        # An injected clock (a ticking deadline clock, say) sees no
        # read it did not ask for: none without a timeout, one per
        # submit with one.
        assert reads == {None: 0, 1.0: 3}
