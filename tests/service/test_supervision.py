"""Tests for the shard supervisor: crash restarts, hang detection.

The supervisor's contract: restarts change *when* results arrive,
never *what* they contain — a supervised run with injected crashes
returns exactly the results a fault-free run would, in index order.
"""

import json
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import obs
from repro.exceptions import ParameterError, SimulationError
from repro.parallel.backends import SerialBackend, WarmPoolBackend
from repro.resilience import ResiliencePolicy, run_replications
from repro.service.supervision import (
    FAIL_FAST,
    ShardSupervisor,
    SupervisionPolicy,
)
from repro.utils.replication_context import current_attempt

#: How long an injected hang sleeps: far past every shard budget below,
#: so a run that returns well before it did not wait for the hung task.
HANG_SECONDS = 30.0


class DrawTask:
    """Deterministic per-index output; optional per-epoch faults.

    ``crash_at`` / ``hang_at`` / ``die_at`` are addressed by
    ``(index, attempt)`` read from the ambient replication context —
    the same addressing the chaos plans use — so attempt 0 can fail
    while the restarted attempt 1 succeeds, on identical inputs.
    """

    def __init__(self, crash_at=(), hang_at=(), die_at=()):
        self.crash_at = frozenset(crash_at)
        self.hang_at = frozenset(hang_at)
        self.die_at = frozenset(die_at)

    def __call__(self, index, generator):
        key = current_attempt()
        if key in self.crash_at:
            raise SimulationError(f"injected crash at {key}")
        if key in self.hang_at:
            time.sleep(HANG_SECONDS)
        if key in self.die_at:
            os._exit(1)  # the worker process dies, as under an OOM kill
        return float(generator.integers(0, 10_000)), 100.0


class DrawThenCrashTask(DrawTask):
    """Advances its stream in place *before* the injected crash."""

    def __call__(self, index, generator):
        value = float(generator.integers(0, 10_000))
        if current_attempt() in self.crash_at:
            raise SimulationError(f"injected crash at {current_attempt()}")
        return value, 100.0


def supervise(task, n_shards, **kwargs):
    """Shard ``i`` runs ``task`` on a stream seeded by ``i``."""
    return ShardSupervisor(
        [(task, np.random.default_rng(i)) for i in range(n_shards)],
        **kwargs,
    )


def run_values(supervisor):
    return [lost for lost, _ in supervisor.run()]


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SupervisionPolicy(max_restarts=-1)
        with pytest.raises(ParameterError):
            SupervisionPolicy(shard_timeout_seconds=0.0)
        with pytest.raises(ParameterError):
            SupervisionPolicy(heartbeat_seconds=0.0)
        with pytest.raises(ParameterError):
            SupervisionPolicy(backoff_seconds=-1.0)
        with pytest.raises(ParameterError):
            SupervisionPolicy(backoff_factor=0.5)

    def test_backoff_schedule(self):
        policy = SupervisionPolicy(backoff_seconds=0.5, backoff_factor=2.0)
        assert policy.backoff_for(0) == 0.5
        assert policy.backoff_for(2) == 2.0


class TestInlineSupervision:
    def test_crash_restart_returns_fault_free_values(self):
        baseline = supervise(DrawTask(), 3, policy=SupervisionPolicy())
        supervised = supervise(
            DrawTask(crash_at=[(1, 0)]),
            3,
            policy=SupervisionPolicy(max_restarts=1),
        )
        assert run_values(supervised) == run_values(baseline)
        report = supervised.reports[1]
        assert (report.attempts, report.restarts) == (2, 1)
        assert report.outcome == "ok"
        assert supervised.reports[0].restarts == 0

    def test_results_in_index_order(self):
        supervisor = supervise(DrawTask(), 4, policy=SupervisionPolicy())
        assert run_values(supervisor) == [
            float(np.random.default_rng(i).integers(0, 10_000))
            for i in range(4)
        ]

    def test_budget_exhaustion_raises_last_error(self):
        supervisor = supervise(
            DrawTask(crash_at=[(0, 0), (0, 1)]),
            1,
            policy=SupervisionPolicy(max_restarts=1),
        )
        with pytest.raises(SimulationError, match=r"\(0, 1\)"):
            supervisor.run()
        assert supervisor.reports[0].outcome == "exhausted"

    def test_zero_restarts_is_fail_fast(self):
        supervisor = supervise(
            DrawTask(crash_at=[(0, 0)]),
            1,
            policy=SupervisionPolicy(max_restarts=0),
        )
        with pytest.raises(SimulationError):
            supervisor.run()

    def test_backoff_uses_injected_sleep(self):
        naps = []
        supervisor = supervise(
            DrawTask(crash_at=[(0, 0), (0, 1)]),
            1,
            policy=SupervisionPolicy(
                max_restarts=2,
                backoff_seconds=0.25,
                backoff_factor=2.0,
                sleep=naps.append,
            ),
        )
        supervisor.run()
        assert naps == [0.25, 0.5]

    def test_restart_gets_unadvanced_stream(self):
        # The failed attempt drew from its stream before crashing; the
        # restart must still draw what a fault-free run draws, and the
        # caller's streams are never advanced.
        baseline = supervise(DrawThenCrashTask(), 3)
        streams = [np.random.default_rng(index) for index in range(3)]
        task = DrawThenCrashTask(crash_at=[(1, 0)])
        supervised = ShardSupervisor(
            [(task, stream) for stream in streams],
            policy=SupervisionPolicy(max_restarts=1),
        )
        assert run_values(supervised) == run_values(baseline)
        assert supervised.reports[1].restarts == 1
        assert [s.bit_generator.state for s in streams] == [
            np.random.default_rng(index).bit_generator.state
            for index in range(3)
        ]

    def test_span_labels_no_backend_serial(self):
        obs.reset()
        obs.enable()
        try:
            supervise(DrawTask(), 2, policy=SupervisionPolicy()).run()
            spans = [
                record
                for record in obs.spans.records()
                if record.name == "service.supervisor"
            ]
        finally:
            obs.disable()
            obs.reset()
        assert [record.attrs["backend"] for record in spans] == ["serial"]

    def test_serial_backend_session_path(self):
        baseline = supervise(DrawTask(), 2, policy=SupervisionPolicy())
        supervised = supervise(
            DrawTask(crash_at=[(0, 0)]),
            2,
            backend=SerialBackend(),
            policy=SupervisionPolicy(max_restarts=1),
        )
        assert run_values(supervised) == run_values(baseline)


@pytest.fixture
def pool():
    backend = WarmPoolBackend(2, start_method="fork")
    try:
        yield backend
    finally:
        backend.shutdown()


def timed_values(supervisor):
    """``supervisor``'s values and the wall-clock seconds of its run."""
    started = time.monotonic()
    values = run_values(supervisor)
    return values, time.monotonic() - started


class TestPoolSupervision:
    def test_crash_restart_matches_fault_free(self, pool):
        baseline = supervise(DrawTask(), 3, policy=SupervisionPolicy())
        supervised = supervise(
            DrawTask(crash_at=[(2, 0)]),
            3,
            backend=pool,
            policy=SupervisionPolicy(max_restarts=1),
        )
        assert run_values(supervised) == run_values(baseline)

    def test_hung_shard_restarted_and_stale_result_discarded(self, pool):
        baseline = supervise(DrawTask(), 2, policy=SupervisionPolicy())
        supervised = supervise(
            DrawTask(hang_at=[(1, 0)]),
            2,
            backend=pool,
            policy=SupervisionPolicy(
                max_restarts=1,
                shard_timeout_seconds=0.3,
                heartbeat_seconds=0.1,
            ),
        )
        values, elapsed = timed_values(supervised)
        assert values == run_values(baseline)
        report = supervised.reports[1]
        assert report.hangs == 1
        assert report.restarts == 1
        # The surviving result is the attempt-1 epoch, not the hung one.
        assert report.attempts == 2
        # The hung worker was recycled, not waited out.
        assert elapsed < HANG_SECONDS / 3

    def test_hang_budget_exhaustion_raises(self):
        backend = WarmPoolBackend(1, start_method="fork")
        supervisor = supervise(
            DrawTask(hang_at=[(0, 0), (0, 1)]),
            1,
            backend=backend,
            policy=SupervisionPolicy(
                max_restarts=1,
                shard_timeout_seconds=0.2,
                heartbeat_seconds=0.05,
            ),
        )
        started = time.monotonic()
        try:
            with pytest.raises(SimulationError, match="declared hung"):
                supervisor.run()
        finally:
            backend.shutdown()
        assert time.monotonic() - started < HANG_SECONDS / 3

    def test_dead_worker_restarted_like_a_crash(self, pool):
        baseline = supervise(DrawTask(), 3, policy=SupervisionPolicy())
        supervised = supervise(
            DrawTask(die_at=[(1, 0)]),
            3,
            backend=pool,
            policy=SupervisionPolicy(max_restarts=1),
        )
        assert run_values(supervised) == run_values(baseline)
        assert supervised.reports[1].restarts >= 1
        assert all(report.outcome == "ok" for report in supervised.reports)

    def test_dead_worker_fails_a_fail_fast_run(self, pool):
        supervisor = supervise(
            DrawTask(die_at=[(1, 0)]), 3, backend=pool, policy=FAIL_FAST
        )
        with pytest.raises(BrokenProcessPool):
            supervisor.run()
        # The next run respawns the workers.
        assert run_values(
            supervise(DrawTask(), 3, backend=pool, policy=FAIL_FAST)
        ) == run_values(supervise(DrawTask(), 3))

    def test_dead_worker_fails_replications_at_a_serial_prefix(
        self, pool, tmp_path
    ):
        # The resilience engine does not retry a dead worker: it drains
        # the indices below it, checkpoints them, then raises.
        path = tmp_path / "ckpt.jsonl"
        with pytest.raises(BrokenProcessPool):
            run_replications(
                DrawTask(die_at=[(2, 0)]),
                4,
                rng=5,
                policy=ResiliencePolicy(
                    max_retries=2, checkpoint_path=str(path)
                ),
                backend=pool,
            )
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        indices = [r["index"] for r in records if r["type"] == "replication"]
        assert indices == list(range(len(indices)))
        assert len(indices) <= 2
