"""Tests for the execution-backend layer."""

import os

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.parallel import (
    ProcessPoolBackend,
    SerialBackend,
    WarmPoolBackend,
    WorkerPayload,
    get_default_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
    warm_pool,
)


def _double(index, generator):
    """Module-level so it pickles into spawn workers."""
    return float(index * 2), 100.0


def _worker_pid(index, generator):
    """Report which process ran the payload (warm-pool persistence)."""
    return float(os.getpid()), 1.0


def _payload(index):
    return WorkerPayload(
        index=index,
        attempt=0,
        task=_double,
        generator=np.random.default_rng(index),
        health_check=False,
    )


class TestSerialBackend:
    def test_runs_in_submission_order(self):
        backend = SerialBackend()
        with backend.session() as session:
            for i in range(4):
                session.submit(_payload(i))
            seen = []
            while session.pending:
                seen.append(session.next_completed().index)
        assert seen == [0, 1, 2, 3]

    def test_results_carry_task_output(self):
        with SerialBackend().session() as session:
            session.submit(_payload(3))
            result = session.next_completed()
        assert result.value[0] == 6.0
        assert result.value[1] == 100.0
        assert not result.failed

    def test_empty_session_raises(self):
        with SerialBackend().session() as session:
            with pytest.raises(RuntimeError, match="no payloads"):
                session.next_completed()

    def test_jobs_is_one(self):
        assert SerialBackend().jobs == 1


class TestProcessPoolBackend:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ParameterError):
            ProcessPoolBackend(0)

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ParameterError, match="start_method"):
            ProcessPoolBackend(2, start_method="telepathy")

    def test_completes_all_payloads(self):
        backend = ProcessPoolBackend(2)
        with backend.session() as session:
            for i in range(5):
                session.submit(_payload(i))
            results = []
            while session.pending:
                results.append(session.next_completed())
        assert sorted(r.index for r in results) == [0, 1, 2, 3, 4]
        by_index = {r.index: r for r in results}
        assert all(by_index[i].value[0] == 2.0 * i for i in range(5))

    def test_empty_session_raises(self):
        with ProcessPoolBackend(2).session() as session:
            with pytest.raises(RuntimeError, match="no payloads"):
                session.next_completed()


class TestWarmPoolBackend:
    def _run_one(self, backend):
        with backend.session() as session:
            session.submit(
                WorkerPayload(
                    index=0,
                    attempt=0,
                    task=_worker_pid,
                    generator=np.random.default_rng(0),
                    health_check=False,
                )
            )
            return int(session.next_completed().value[0])

    def test_workers_persist_across_sessions(self):
        backend = WarmPoolBackend(1, idle_timeout_seconds=None)
        try:
            first = self._run_one(backend)
            second = self._run_one(backend)
            # Same process served both sessions: the spawn tax was
            # paid exactly once.
            assert first == second
            assert first != os.getpid()
        finally:
            backend.shutdown()

    def test_recycle_replaces_workers(self):
        backend = WarmPoolBackend(1, idle_timeout_seconds=None)
        try:
            before = self._run_one(backend)
            backend.recycle()
            after = self._run_one(backend)
            assert before != after
        finally:
            backend.shutdown()

    def test_shutdown_then_reuse_restarts(self):
        backend = WarmPoolBackend(1, idle_timeout_seconds=None)
        try:
            self._run_one(backend)
            backend.shutdown()
            backend.shutdown()  # idempotent
            assert self._run_one(backend) != os.getpid()
        finally:
            backend.shutdown()

    def test_warm_returns_self(self):
        backend = WarmPoolBackend(1, idle_timeout_seconds=None)
        try:
            assert backend.warm() is backend
        finally:
            backend.shutdown()

    def test_completes_all_payloads(self):
        backend = WarmPoolBackend(2, idle_timeout_seconds=None)
        try:
            with backend.session() as session:
                for i in range(5):
                    session.submit(
                        WorkerPayload(
                            index=i,
                            attempt=0,
                            task=_double,
                            generator=np.random.default_rng(i),
                            health_check=False,
                        )
                    )
                results = []
                while session.pending:
                    results.append(session.next_completed())
        finally:
            backend.shutdown()
        assert sorted(r.index for r in results) == [0, 1, 2, 3, 4]
        assert all(
            r.value[0] == 2.0 * r.index and not r.failed for r in results
        )

    def test_shared_registry_caches_by_shape(self):
        assert warm_pool(2) is warm_pool(2)
        assert warm_pool(2) is not warm_pool(3)


class TestResolveBackend:
    def test_jobs_defaults_to_shared_warm_pool(self):
        backend = resolve_backend(jobs=2)
        assert isinstance(backend, WarmPoolBackend)
        assert backend is warm_pool(2)

    def test_default_is_inline(self):
        assert resolve_backend() is None

    def test_jobs_one_is_inline(self):
        assert resolve_backend(jobs=1) is None

    def test_jobs_builds_pool(self):
        backend = resolve_backend(jobs=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 3

    def test_explicit_backend_wins(self):
        backend = SerialBackend()
        assert resolve_backend(backend=backend) is backend

    def test_both_rejected(self):
        with pytest.raises(ParameterError, match="not both"):
            resolve_backend(backend=SerialBackend(), jobs=2)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ParameterError):
            resolve_backend(jobs=0)

    def test_use_backend_installs_and_restores(self):
        backend = SerialBackend()
        assert get_default_backend() is None
        with use_backend(backend):
            assert get_default_backend() is backend
            assert resolve_backend() is backend
        assert get_default_backend() is None

    def test_set_default_backend_round_trip(self):
        backend = SerialBackend()
        set_default_backend(backend)
        try:
            assert resolve_backend() is backend
            # Explicit kwargs still beat the installed default.
            assert resolve_backend(jobs=1) is None
        finally:
            set_default_backend(None)


def _slow_double(index, generator):
    """Sleep long enough that a mid-session recycle catches it running."""
    import time

    time.sleep(3.0)
    return float(index * 2), 100.0


class TestWarmPoolReapRace:
    """Regression: an idle reap mid-session must not lose work.

    ``threading.Timer.cancel()`` cannot stop a reap callback that has
    already fired, so ``shutdown()`` (the timer's callback) can land
    between a session's submits and its collection.  Reap-cancelled
    futures must be transparently resubmitted on a restarted pool —
    while ``recycle()`` fencing and real worker deaths still surface.
    """

    def test_reap_between_submit_and_collect_loses_nothing(self):
        backend = WarmPoolBackend(1, idle_timeout_seconds=None)
        try:
            with backend.session() as session:
                for i in range(3):
                    session.submit(_payload(i))
                # The reaper's exact code path, forced deterministically:
                # with one just-spawning worker, at least two of the
                # three futures are still pending and die CANCELLED.
                backend.shutdown()
                results = {}
                while session.pending:
                    result = session.next_completed()
                    assert not result.failed
                    results[result.index] = result.value[0]
            assert results == {0: 0.0, 1: 2.0, 2: 4.0}
        finally:
            backend.shutdown()

    def test_submit_after_reap_reacquires_the_pool(self):
        backend = WarmPoolBackend(1, idle_timeout_seconds=None)
        try:
            with backend.session() as session:
                backend.shutdown()
                session.submit(_payload(5))
                result = session.next_completed()
            assert not result.failed
            assert result.value[0] == 10.0
        finally:
            backend.shutdown()

    def test_repeated_reaps_are_survivable(self):
        backend = WarmPoolBackend(1, idle_timeout_seconds=None)
        try:
            with backend.session() as session:
                session.submit(_payload(1))
                backend.shutdown()
                backend.shutdown()
                first = session.next_completed()
                backend.shutdown()
                session.submit(_payload(2))
                second = session.next_completed()
            assert (first.value[0], second.value[0]) == (2.0, 4.0)
        finally:
            backend.shutdown()

    def test_recycle_fencing_still_surfaces(self):
        import concurrent.futures

        backend = WarmPoolBackend(1, idle_timeout_seconds=None)
        try:
            backend.warm()
            with backend.session() as session:
                session.submit(
                    WorkerPayload(
                        index=0,
                        attempt=0,
                        task=_slow_double,
                        generator=np.random.default_rng(0),
                        health_check=False,
                    )
                )
                # A supervisor fencing a hang is a real fault, not an
                # idle reap: the session must NOT hide it.
                backend.recycle()
                with pytest.raises(
                    (
                        concurrent.futures.CancelledError,
                        concurrent.futures.process.BrokenProcessPool,
                    )
                ):
                    while session.pending:
                        result = session.next_completed()
                        if result.failed:
                            raise result.error
        finally:
            backend.shutdown()
