"""The fault-tolerant replication supervisor.

:func:`run_replications` runs ``n_replications`` of a caller-supplied
task under the paper's replication discipline (Section 5.5: pooled
estimates over independent seeded replications) with three layers of
protection a production batch needs:

* **per-replication isolation** — a replication that raises a library
  error (:class:`~repro.exceptions.ReproError`), a floating-point trap,
  or fails the :func:`~repro.utils.validation.check_simulation_health`
  guard is retried on a freshly spawned child RNG stream, up to the
  policy's budget; other exceptions (bugs, ``KeyboardInterrupt``)
  propagate untouched;
* **checkpoint/resume** — completed replications append to a JSONL
  checkpoint validated against the run fingerprint, so an interrupted
  batch resumes exactly where it stopped and reproduces the pooled
  estimate bit for bit;
* **deadline-bounded graceful degradation** — past the policy
  deadline (or once a replication exhausts its retries) the engine
  stops launching work and returns the completed subset flagged
  ``degraded`` with a :class:`~repro.exceptions.DegradedResultWarning`,
  raising only when *nothing* completed.

Every attempt runs on the one loop of :mod:`repro.parallel.dispatch`:
in this process on a :class:`~repro.parallel.backends.SerialBackend`
when no backend is given, or across worker processes on a pool.
All supervision — retry decisions, checkpoint appends, telemetry
export — stays in the parent: workers never touch the JSONL file, and
completions flush to it in strict replication-index order, so the
checkpoint (and hence the pooled estimate after a resume) is
bit-identical to a serial run regardless of completion order.  A
crash loses only completions still waiting on a smaller index; they
are recomputed deterministically on resume.

With ``replication_timeout_seconds`` set on the policy, a parallel
attempt that outlives its wall-clock budget is declared hung: the
attempt is fenced off (its eventual result — and telemetry — is
discarded on arrival) and a fresh attempt dispatched on the next
child stream, so a hang is handled exactly like any other retryable
failure (``ReplicationTimeout`` in the failure log).  If a fenced
attempt never returns, a warm pool's workers are replaced when the
batch ends, on every exit path (``replications_pool_recycled``).

Telemetry counters (no-ops unless :mod:`repro.obs` is enabled):
``replications_completed``, ``replications_retried``,
``replications_failed``, ``replications_degraded``,
``replications_timed_out``, ``replications_stale_results``,
``checkpoint_resumed``.  The failure/degradation counters feed the
default SLO targets of :mod:`repro.obs.slo`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.exceptions import (
    RETRYABLE_EXCEPTIONS,
    DegradedResultWarning,
    SimulationError,
)
from repro.obs import metrics as _metrics
from repro.obs import progress as _progress
from repro.obs import spans as _spans
from repro.parallel.backends import Backend
from repro.parallel.dispatch import Hang, dispatch
from repro.parallel.worker import (
    WorkerPayload,
    merge_result_telemetry,
    replication_pair,
)
from repro.resilience.checkpoint import (
    CheckpointFile,
    ReplicationRecord,
    fingerprint_digest,
)
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.seeding import ReplicationSeeder
from repro.utils.rng import RngLike
from repro.utils.validation import check_integer

__all__ = [
    "EngineResult",
    "FailureRecord",
    "RETRYABLE_EXCEPTIONS",
    "ReplicationOutcome",
    "ReplicationTask",
    "run_replications",
]

#: A replication body: ``(index, generator) -> (lost, arrived)`` where
#: ``lost`` is a scalar or per-buffer vector of lost cells and
#: ``arrived`` the total offered cells.
ReplicationTask = Callable[
    [int, np.random.Generator], Tuple[Union[float, np.ndarray], float]
]


@dataclass(frozen=True)
class FailureRecord:
    """One failed attempt: which replication, which try, what broke."""

    index: int
    attempt: int
    kind: str
    message: str
    elapsed_seconds: float


@dataclass(frozen=True)
class ReplicationOutcome:
    """One completed replication's contribution to the pooled estimate."""

    index: int
    lost: Union[float, np.ndarray]
    arrived: float
    attempts: int
    resumed: bool


@dataclass(frozen=True)
class EngineResult:
    """Everything the supervisor knows after a batch finishes."""

    n_replications: int
    outcomes: Tuple[ReplicationOutcome, ...]
    failures: Tuple[FailureRecord, ...]
    degraded: bool
    deadline_hit: bool
    n_resumed: int
    n_retried: int
    checkpoint_path: Optional[str] = None

    @property
    def n_completed(self) -> int:
        return len(self.outcomes)

    @property
    def n_failed(self) -> int:
        """Replications missing from the pool (abandoned or never run)."""
        return self.n_replications - self.n_completed


def _resolve_checkpoint(
    policy: ResiliencePolicy, fingerprint: dict, label: str
) -> Optional[CheckpointFile]:
    if policy.checkpoint_path is not None:
        return CheckpointFile(policy.checkpoint_path, fingerprint)
    if policy.checkpoint_dir is not None:
        stem = "".join(
            ch if ch.isalnum() or ch in "._-" else "_" for ch in label
        ) or "replications"
        name = f"{stem}-{fingerprint_digest(fingerprint)}.jsonl"
        return CheckpointFile(Path(policy.checkpoint_dir) / name, fingerprint)
    return None


class _OrderedFlush:
    """Advance checkpoint appends in strict replication-index order.

    Workers complete out of order, but the JSONL checkpoint must read
    exactly as a serial run would have written it (that is what makes
    resumed pools bit-identical).  The flush pointer walks the index
    line: resumed indices are already on disk, abandoned ones are
    never written (serial skips them too), completed ones append; the
    pointer stalls at the first index still undetermined.
    """

    def __init__(
        self,
        n_replications: int,
        checkpoint: Optional[CheckpointFile],
        seeder: ReplicationSeeder,
        completed: dict,
        resumed: set,
        abandoned: set,
    ):
        self._n = n_replications
        self._checkpoint = checkpoint
        self._seeder = seeder
        self._completed = completed
        self._resumed = resumed
        self._abandoned = abandoned
        self._next = 0

    def advance(self) -> None:
        while self._next < self._n:
            index = self._next
            if index in self._resumed or index in self._abandoned:
                self._next += 1
                continue
            outcome = self._completed.get(index)
            if outcome is None:
                return
            if self._checkpoint is not None:
                lost = outcome.lost
                self._checkpoint.append(
                    ReplicationRecord(
                        index=index,
                        lost=(
                            lost
                            if isinstance(lost, float)
                            else tuple(float(x) for x in lost)
                        ),
                        arrived=outcome.arrived,
                        attempts=outcome.attempts,
                        spawn_key=self._seeder.spawn_key(index),
                    )
                )
            self._next += 1


def _supervise(
    task: ReplicationTask,
    n_replications: int,
    seeder: ReplicationSeeder,
    policy: ResiliencePolicy,
    checkpoint: Optional[CheckpointFile],
    completed: dict,
    failures: list,
    backend: Optional[Backend],
    label: str,
    started: float,
    deadline: Optional[float],
    reporter,
) -> Tuple[int, bool]:
    """Run the outstanding replications on ``backend`` (None: serial).

    Mutates ``completed`` and ``failures`` in place; returns
    ``(n_retried, deadline_hit)``.  All retry decisions and checkpoint
    appends happen here, in the parent — workers only execute payloads,
    and :func:`~repro.parallel.dispatch.dispatch` owns the waiting,
    hang fencing and pool recycling.
    """
    telemetry = _spans.is_enabled()
    abandoned: set = set()
    flush = _OrderedFlush(
        n_replications, checkpoint, seeder, completed,
        set(completed), abandoned,
    )
    flush.advance()
    n_retried = 0
    deadline_hit = False
    fatal_error: Optional[BaseException] = None
    fatal_index = -1
    timeout_budget = policy.replication_timeout_seconds

    def _prefix_resolved() -> bool:
        return all(
            i in completed or i in abandoned for i in range(fatal_index)
        )

    def _stop() -> bool:
        nonlocal deadline_hit
        if fatal_error is not None and _prefix_resolved():
            return True
        if deadline is not None and policy.clock() >= deadline:
            # In-flight work is cancelled/discarded by the session
            # teardown; uncollected completions are recomputed
            # deterministically on resume.
            deadline_hit = True
            return True
        return False

    with dispatch(
        backend,
        timeout=timeout_budget,
        clock=policy.clock,
        stale_metric="replications_stale_results",
        recycle_metric="replications_pool_recycled",
    ) as loop:

        def _submit(index: int) -> None:
            loop.submit(
                WorkerPayload(
                    index=index,
                    attempt=seeder.attempts(index),
                    task=task,
                    generator=seeder.generator(index),
                    label=label,
                    telemetry=telemetry,
                    health_check=True,
                )
            )

        def _retry(index: int, attempt: int) -> None:
            """Resubmit ``index``, or abandon it once out of retries."""
            nonlocal n_retried
            if attempt >= policy.max_retries:
                _metrics.add("replications_failed")
                abandoned.add(index)
                flush.advance()
                return
            _metrics.add("replications_retried")
            n_retried += 1
            _submit(index)

        for index in range(n_replications):
            if index not in completed:
                _submit(index)
        for event in loop.events(stop=_stop):
            if isinstance(event, Hang):
                # The attempt outlived its budget and is fenced off; a
                # fresh attempt on the next child stream makes the
                # hang an ordinary retryable failure.
                if fatal_error is not None and event.index > fatal_index:
                    # Serial execution never reaches this
                    # replication; don't retry or record it.
                    continue
                _metrics.add("replications_timed_out")
                failures.append(
                    FailureRecord(
                        index=event.index,
                        attempt=event.attempt,
                        kind="ReplicationTimeout",
                        message=(
                            f"replication {event.index} attempt "
                            f"{event.attempt} exceeded {timeout_budget}s "
                            "wall-clock budget (declared hung)"
                        ),
                        elapsed_seconds=event.now - started,
                    )
                )
                _retry(event.index, event.attempt)
                continue
            result = event
            merge_result_telemetry(result)
            if result.failed:
                if not result.retryable:
                    # A crash aborts the batch exactly as it aborts a
                    # serial run — but serial completes (and
                    # checkpoints) every replication *before* the
                    # crash point first.  Pool workers complete out of
                    # order, so keep draining until the index prefix
                    # below the crash is resolved, then raise; the
                    # checkpoint stays a serial prefix either way
                    # because the ordered flush stalls at the crashed
                    # index.
                    if fatal_error is None or result.index < fatal_index:
                        fatal_error = result.error
                        fatal_index = result.index
                    continue
                if fatal_error is not None and result.index > fatal_index:
                    # Serial execution never reaches this replication;
                    # don't retry or record it while aborting.
                    continue
                failures.append(
                    FailureRecord(
                        index=result.index,
                        attempt=result.attempt,
                        kind=result.error_kind,
                        message=result.error_message,
                        elapsed_seconds=policy.clock() - started,
                    )
                )
                if result.attempt == 0 and result.generator is not None:
                    # Attempt 0 is the one that runs *on* the parent
                    # stream; a pool worker mutated a pickled copy, so
                    # adopt it — retries must derive from post-attempt
                    # state exactly as they would in-process (where
                    # it is the parent stream itself).  Later
                    # attempts run on spawned children, which never
                    # feed back into derivation.
                    seeder.adopt_generator(result.index, result.generator)
                _retry(result.index, result.attempt)
                continue
            lost, arrived = replication_pair(result.value)
            completed[result.index] = ReplicationOutcome(
                index=result.index,
                lost=lost,
                arrived=arrived,
                attempts=result.attempt + 1,
                resumed=False,
            )
            _metrics.add("replications_completed")
            flush.advance()
            reporter.advance()
    if fatal_error is not None:
        raise fatal_error
    return n_retried, deadline_hit


def run_replications(
    task: ReplicationTask,
    n_replications: int,
    rng: RngLike = None,
    *,
    policy: Optional[ResiliencePolicy] = None,
    fingerprint: Optional[dict] = None,
    label: str = "",
    backend: Optional[Backend] = None,
) -> EngineResult:
    """Supervise ``n_replications`` runs of ``task`` under ``policy``.

    ``fingerprint`` identifies the batch for checkpoint validation
    (model, geometry, depth); the engine adds ``n_replications`` and
    the seed entropy itself.  Raises
    :class:`~repro.exceptions.SimulationError` only if no replication
    at all completed; otherwise degraded batches return partial
    results flagged via :attr:`EngineResult.degraded`.  With no
    ``backend`` the attempts run in this process; on a pool they run
    on worker processes (``task`` must pickle), and results are
    identical to serial, bit for bit.
    """
    n_replications = check_integer(
        n_replications, "n_replications", minimum=1
    )
    if policy is None:
        policy = ResiliencePolicy()
    seeder = ReplicationSeeder(rng, n_replications)
    fingerprint = dict(fingerprint or {})
    fingerprint.setdefault("n_replications", n_replications)
    fingerprint.setdefault(
        "entropy", None if seeder.entropy is None else str(seeder.entropy)
    )
    checkpoint = _resolve_checkpoint(policy, fingerprint, label)

    completed: dict = {}
    if checkpoint is not None and checkpoint.records:
        for index in checkpoint.completed_indices():
            if index >= n_replications:
                continue
            record = checkpoint.records[index]
            lost = (
                record.lost
                if isinstance(record.lost, float)
                else np.asarray(record.lost, dtype=float)
            )
            completed[index] = ReplicationOutcome(
                index=index,
                lost=lost,
                arrived=record.arrived,
                attempts=record.attempts,
                resumed=True,
            )
        _metrics.add("checkpoint_resumed", len(completed))
    n_resumed = len(completed)

    started = policy.clock()
    deadline = policy.deadline(started)
    failures = []
    reporter = _progress.reporter(
        n_replications, label=label or "resilient_replications"
    )
    try:
        if completed:
            reporter.advance(len(completed))
        n_retried, deadline_hit = _supervise(
            task, n_replications, seeder, policy, checkpoint, completed,
            failures, backend, label, started, deadline, reporter,
        )
    finally:
        reporter.finish()

    outcomes = tuple(completed[i] for i in sorted(completed))
    if not outcomes:
        missing = sorted(set(range(n_replications)) - set(completed))
        raise SimulationError(
            f"no replication completed out of {n_replications} "
            f"({len(failures)} failed attempt(s)"
            + (", deadline exceeded" if deadline_hit else "")
            + "); nothing to pool",
            bad_replications=missing,
        )
    degraded = len(outcomes) < n_replications
    if degraded:
        _metrics.add("replications_degraded")
        warnings.warn(
            DegradedResultWarning(
                f"{label or 'replicated batch'}: pooled estimate covers "
                f"{len(outcomes)}/{n_replications} replications "
                f"({'deadline exceeded' if deadline_hit else 'retry budget exhausted'}); "
                "treat confidence intervals accordingly"
            ),
            stacklevel=2,
        )
    return EngineResult(
        n_replications=n_replications,
        outcomes=outcomes,
        failures=tuple(failures),
        degraded=degraded,
        deadline_hit=deadline_hit,
        n_resumed=n_resumed,
        n_retried=n_retried,
        checkpoint_path=(
            None if checkpoint is None else str(checkpoint.path)
        ),
    )
