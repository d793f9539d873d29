"""Tests for per-replication wall-clock timeouts (hang detection).

A hung worker on a pool backend must become an ordinary retryable
failure: the attempt is fenced off, its eventual (stale) result is
discarded, and the retry runs on the next child stream — exactly the
stream an :class:`InjectedFault` retry would use, which is what makes
the recovery deterministic and testable by equality.
"""

import time

import pytest

import repro.obs as obs
from repro.exceptions import (
    CheckpointError,
    DegradedResultWarning,
    ParameterError,
    SimulationError,
)
from repro.obs import metrics
from repro.parallel.backends import ProcessPoolBackend, WarmPoolBackend
from repro.resilience import ResiliencePolicy, run_replications
from repro.resilience.checkpoint import CheckpointFile
from repro.utils.replication_context import current_attempt


class EpochTask:
    """Hangs or fails on scheduled ``(index, attempt)`` epochs."""

    def __init__(self, hang_at=(), fail_at=(), seconds=1.5):
        self.hang_at = frozenset(hang_at)
        self.fail_at = frozenset(fail_at)
        self.seconds = seconds

    def __call__(self, index, generator):
        key = current_attempt()
        if key in self.hang_at:
            time.sleep(self.seconds)
        if key in self.fail_at:
            raise SimulationError(f"injected failure at {key}")
        value = float(generator.random())
        return value, 1.0 + value


def backend():
    return ProcessPoolBackend(2, start_method="fork")


class TestPolicyValidation:
    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ParameterError, match="replication_timeout"):
            ResiliencePolicy(replication_timeout_seconds=0.0)
        with pytest.raises(ParameterError, match="replication_timeout"):
            ResiliencePolicy(replication_timeout_seconds=-1.0)

    def test_none_is_default(self):
        assert ResiliencePolicy().replication_timeout_seconds is None


class TestHangRecovery:
    def test_hang_retried_like_any_failure(self):
        # A timed-out attempt must pool exactly what a failed attempt
        # pools: the retry stream is the same spawn child either way.
        hung = run_replications(
            EpochTask(hang_at=[(1, 0)]),
            3,
            rng=7,
            policy=ResiliencePolicy(
                max_retries=1, replication_timeout_seconds=0.3
            ),
            backend=backend(),
        )
        failed = run_replications(
            EpochTask(fail_at=[(1, 0)]),
            3,
            rng=7,
            policy=ResiliencePolicy(max_retries=1),
            backend=backend(),
        )
        assert [o.lost for o in hung.outcomes] == [
            o.lost for o in failed.outcomes
        ]
        assert hung.n_retried == 1
        assert not hung.degraded
        kinds = [f.kind for f in hung.failures]
        assert kinds == ["ReplicationTimeout"]
        # The stale attempt-0 result (it finishes its sleep and
        # returns a healthy value) must not have displaced the retry.
        assert hung.outcomes[1].attempts == 2

    def test_no_timeout_keeps_legacy_blocking(self):
        # Without the knob a slow attempt is just slow: attempt 0's
        # value survives.
        slow = run_replications(
            EpochTask(hang_at=[(1, 0)], seconds=0.4),
            2,
            rng=7,
            policy=ResiliencePolicy(max_retries=1),
            backend=backend(),
        )
        clean = run_replications(
            EpochTask(),
            2,
            rng=7,
            policy=ResiliencePolicy(max_retries=1),
            backend=backend(),
        )
        assert [o.lost for o in slow.outcomes] == [
            o.lost for o in clean.outcomes
        ]
        assert slow.n_retried == 0

    def test_timeout_exhaustion_degrades(self):
        with pytest.warns(DegradedResultWarning):
            result = run_replications(
                EpochTask(hang_at=[(0, 0), (0, 1)], seconds=1.0),
                2,
                rng=7,
                policy=ResiliencePolicy(
                    max_retries=1, replication_timeout_seconds=0.25
                ),
                backend=backend(),
            )
        assert result.degraded
        assert [o.index for o in result.outcomes] == [1]
        assert [f.kind for f in result.failures] == [
            "ReplicationTimeout",
            "ReplicationTimeout",
        ]

    def test_checkpoint_stays_serial_prefix_under_timeouts(self, tmp_path):
        # Ordered flush discipline survives the new loop structure:
        # the checkpoint written under a hang-retry matches the one a
        # fault-free run writes, record for record.
        path_a = tmp_path / "hung.jsonl"
        path_b = tmp_path / "clean.jsonl"
        run_replications(
            EpochTask(hang_at=[(0, 0)], seconds=3.0),
            3,
            rng=11,
            policy=ResiliencePolicy(
                max_retries=1,
                replication_timeout_seconds=1.0,
                checkpoint_path=str(path_a),
            ),
            backend=backend(),
        )
        run_replications(
            EpochTask(fail_at=[(0, 0)]),
            3,
            rng=11,
            policy=ResiliencePolicy(
                max_retries=1, checkpoint_path=str(path_b)
            ),
            backend=backend(),
        )
        assert path_a.read_text() == path_b.read_text()


class TestRecycleOnError:
    def test_fenced_hang_recycled_when_an_error_escapes(
        self, tmp_path, monkeypatch
    ):
        # Attempt (0, 0) hangs past its budget and is fenced; its retry
        # completes, and the checkpoint append for it raises.  The
        # error must still leave the warm pool recycled, or the hung
        # worker keeps its slot for every later session.
        pool = WarmPoolBackend(
            2, start_method="fork", idle_timeout_seconds=None
        )
        recycled = []
        recycle = pool.recycle
        monkeypatch.setattr(
            pool, "recycle", lambda: (recycled.append(1), recycle())
        )

        def refuse(self, record):
            raise CheckpointError("checkpoint volume is read-only")

        monkeypatch.setattr(CheckpointFile, "append", refuse)
        obs.reset()
        obs.enable()
        try:
            with pytest.raises(CheckpointError):
                run_replications(
                    EpochTask(hang_at=[(0, 0)], seconds=3.0),
                    3,
                    rng=11,
                    policy=ResiliencePolicy(
                        max_retries=1,
                        replication_timeout_seconds=0.3,
                        checkpoint_path=str(tmp_path / "ckpt.jsonl"),
                    ),
                    backend=pool,
                )
            assert recycled == [1]
            assert metrics.counter("replications_pool_recycled").value == 1
        finally:
            obs.disable()
            obs.reset()
            pool.shutdown()
