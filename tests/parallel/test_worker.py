"""Tests for payload execution and failure transport."""

import pickle

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.parallel.worker import (
    WorkerPayload,
    _transportable,
    execute_payload,
    pool_entry,
    replication_pair,
)
from repro.queueing.replication import _run_failfast
from repro.resilience import ResiliencePolicy, run_replications
from repro.service.supervision import FAIL_FAST, ShardSupervisor
from repro.utils.replication_context import current_attempt


def _ok_task(index, generator):
    return float(index), 50.0


def _vector_task(index, generator):
    return np.array([1.0, 2.0]), 50.0


def _nan_task(index, generator):
    return float("nan"), 50.0


def _empty_task(index, generator):
    return 0.0, 0.0


def _retryable_task(index, generator):
    raise SimulationError("scheduled")


def _bug_task(index, generator):
    raise ValueError("a real bug")


def _context_task(index, generator):
    lost = 1.0 if current_attempt() == (index, 2) else 0.0
    return lost, 10.0


def _payload(task, index=0, attempt=0, health_check=True):
    return WorkerPayload(
        index=index,
        attempt=attempt,
        task=task,
        generator=np.random.default_rng(index),
        health_check=health_check,
    )


class TestExecutePayload:
    def test_success_scalar(self):
        result = execute_payload(_payload(_ok_task, index=3))
        assert not result.failed
        lost, arrived = replication_pair(result.value)
        assert (lost, arrived) == (3.0, 50.0)
        assert isinstance(lost, float)

    def test_success_vector(self):
        result = execute_payload(_payload(_vector_task))
        lost, _ = replication_pair(result.value)
        assert isinstance(lost, np.ndarray)
        assert np.array_equal(lost, [1.0, 2.0])

    def test_retryable_failure_classified(self):
        result = execute_payload(_payload(_retryable_task))
        assert result.failed
        assert result.retryable
        assert result.error_kind == "SimulationError"
        assert isinstance(result.error, SimulationError)

    def test_bug_not_retryable(self):
        result = execute_payload(_payload(_bug_task))
        assert result.failed
        assert not result.retryable
        assert isinstance(result.error, ValueError)

    def test_health_check_catches_nan(self):
        result = execute_payload(_payload(_nan_task))
        assert result.failed
        assert result.retryable

    def test_health_check_catches_zero_arrivals(self):
        result = execute_payload(_payload(_empty_task, index=7))
        assert result.failed
        assert isinstance(result.error, SimulationError)
        assert "replication 7" in str(result.error)

    def test_health_check_off_passes_nan_through(self):
        result = execute_payload(_payload(_nan_task, health_check=False))
        assert not result.failed
        assert np.isnan(result.value[0])

    def test_publishes_replication_context(self):
        result = execute_payload(_payload(_context_task, index=4, attempt=2))
        assert result.value[0] == 1.0  # task saw (index, attempt) == (4, 2)
        assert current_attempt() is None  # restored afterwards

    def test_returns_generator_state(self):
        payload = _payload(_ok_task)
        result = execute_payload(payload)
        assert result.generator is payload.generator


class TestTransportable:
    def test_picklable_exception_passes_through(self):
        exc = ValueError("fine")
        assert _transportable(exc) is exc

    def test_library_exception_with_kwargs_survives(self):
        exc = SimulationError("bad", bad_replications=(1, 2))
        out = _transportable(exc)
        assert pickle.loads(pickle.dumps(out)) is not None

    def test_unpicklable_exception_replaced(self):
        class LocalError(Exception):
            """Not importable from a module, so pickle must fail."""

        out = _transportable(LocalError("outer"))
        assert isinstance(out, RuntimeError)
        assert "LocalError" in str(out)
        assert "outer" in str(out)


class TestErrorOnlyReplacedAcrossProcesses:
    """A task's exception stays the original object in this process;
    only a pool worker's result carries the stand-in."""

    @pytest.fixture
    def boom(self):
        class Boom(Exception):
            """Not importable from a module, so pickle must fail."""

        def task(index, generator):
            raise Boom("shard blew up")

        return Boom, task

    def test_pool_entry_result_carries_stand_in(self, boom):
        _, task = boom
        result = pool_entry(_payload(task))
        assert isinstance(result.error, RuntimeError)
        assert str(result.error) == "Boom: shard blew up"
        assert result.error_kind == "Boom"

    def test_serial_shard_supervisor_raises_original(self, boom):
        boom_class, task = boom
        supervisor = ShardSupervisor(
            [(task, np.random.default_rng(i)) for i in range(2)],
            policy=FAIL_FAST,
        )
        with pytest.raises(boom_class, match="shard blew up"):
            supervisor.run()

    def test_serial_run_replications_raises_original(self, boom):
        boom_class, task = boom
        with pytest.raises(boom_class):
            run_replications(
                task, 2, rng=1, policy=ResiliencePolicy(max_retries=0)
            )

    def test_serial_run_failfast_raises_original(self, boom):
        boom_class, task = boom
        with pytest.raises(boom_class):
            _run_failfast(task, 2, 1, None, "boom")
