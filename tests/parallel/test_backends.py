"""Tests for the execution-backend layer."""

import gc
import os
import time
import weakref
from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.parallel import backends
from repro.parallel import (
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


def _slow_double(index, generator):
    """Sleep long enough that a mid-session recycle catches it running."""
    time.sleep(30.0)
    return float(index * 2), 100.0


def _die(index, generator):
    """Kill the worker process, standing in for an OOM kill."""
    os._exit(1)


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
    """The process pool as callers reach it: ``resolve_backend(jobs=N)``."""

    def test_completes_all_payloads(self):
        backend = resolve_backend(jobs=2)
        try:
            with backend.session() as session:
                for i in range(5):
                    session.submit(_payload(i))
                results = []
                while session.pending:
                    results.append(session.next_completed())
        finally:
            backend.shutdown()
        assert sorted(r.index for r in results) == [0, 1, 2, 3, 4]
        by_index = {r.index: r for r in results}
        assert all(by_index[i].value[0] == 2.0 * i for i in range(5))


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

    def test_rejects_zero_jobs(self):
        with pytest.raises(ParameterError):
            WarmPoolBackend(0)

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ParameterError, match="start_method"):
            WarmPoolBackend(2, start_method="telepathy")

    def test_workers_persist_across_sessions(self):
        backend = WarmPoolBackend(1)
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
        backend = WarmPoolBackend(1)
        try:
            before = self._run_one(backend)
            backend.recycle()
            after = self._run_one(backend)
            assert before != after
        finally:
            backend.shutdown()

    def test_shutdown_then_reuse_restarts(self):
        backend = WarmPoolBackend(1)
        try:
            self._run_one(backend)
            backend.shutdown()
            backend.shutdown()  # idempotent
            assert self._run_one(backend) != os.getpid()
        finally:
            backend.shutdown()

    def test_warm_returns_self(self):
        backend = WarmPoolBackend(1)
        try:
            assert backend.warm() is backend
        finally:
            backend.shutdown()

    def test_completes_all_payloads(self):
        backend = WarmPoolBackend(2)
        try:
            with backend.session() as session:
                for i in range(5):
                    session.submit(_payload(i))
                results = []
                while session.pending:
                    results.append(session.next_completed())
        finally:
            backend.shutdown()
        assert sorted(r.index for r in results) == [0, 1, 2, 3, 4]
        assert all(
            r.value[0] == 2.0 * r.index and not r.failed for r in results
        )

    def test_empty_session_raises(self):
        backend = WarmPoolBackend(1)
        try:
            with backend.session() as session:
                with pytest.raises(RuntimeError, match="no payloads"):
                    session.next_completed()
        finally:
            backend.shutdown()

    def test_submit_after_shutdown_reacquires_the_pool(self):
        backend = WarmPoolBackend(1)
        try:
            with backend.session() as session:
                backend.shutdown()
                session.submit(_payload(5))
                result = session.next_completed()
            assert not result.failed
            assert result.value[0] == 10.0
        finally:
            backend.shutdown()

    def test_recycle_fencing_still_surfaces(self):
        # Recycling terminates the worker under a running attempt; the
        # session reports that attempt as failed, not retryable.
        backend = WarmPoolBackend(1)
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
                backend.recycle()
                result = session.next_completed()
        finally:
            backend.shutdown()
        assert (result.index, result.attempt) == (0, 0)
        assert result.failed and not result.retryable
        assert isinstance(
            result.error, (CancelledError, BrokenProcessPool)
        )

    def test_dead_worker_fails_only_its_attempts(self):
        # A worker that dies breaks the executor: its attempt comes
        # back failed and the next submit respawns the workers.
        backend = WarmPoolBackend(1, start_method="fork")
        try:
            with backend.session() as session:
                session.submit(
                    WorkerPayload(
                        index=0,
                        attempt=0,
                        task=_die,
                        generator=np.random.default_rng(0),
                        health_check=False,
                    )
                )
                dead = session.next_completed()
                session.submit(_payload(1))
                alive = session.next_completed()
        finally:
            backend.shutdown()
        assert isinstance(dead.error, BrokenProcessPool)
        assert dead.failed and not dead.retryable
        assert not alive.failed and alive.value[0] == 2.0

    def test_shared_registry_caches_by_shape(self):
        assert warm_pool(2) is warm_pool(2)
        assert warm_pool(2) is not warm_pool(3)

    def test_dropped_pools_are_collected(self):
        # The exit hook holds pools weakly: a shut-down pool nobody
        # references is freed, not kept alive until exit.
        refs = []
        for _ in range(5):
            backend = WarmPoolBackend(1)
            backend.shutdown()
            refs.append(weakref.ref(backend))
        del backend
        gc.collect()
        assert [ref() for ref in refs] == [None] * 5

    def test_exit_hook_shuts_down_live_pools(self, monkeypatch):
        # A private registry, so the hook leaves the shared pools be.
        monkeypatch.setattr(backends, "_live_pools", weakref.WeakSet())
        backend = WarmPoolBackend(1, start_method="fork").warm()
        try:
            processes = list(backend._executor._processes.values())
            assert processes and all(p.is_alive() for p in processes)
            backends._shutdown_live_pools()
            assert backend._executor is None
            for process in processes:
                # Wait on the sentinel, which closes when the worker
                # exits: the pool's management thread joins the same
                # process, and a join that loses that race finds the
                # child already reaped and reports it alive.
                assert wait([process.sentinel], timeout=30)
        finally:
            backend.shutdown()


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
        assert isinstance(backend, WarmPoolBackend)
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
