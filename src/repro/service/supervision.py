"""Shard supervision: restart crashed or hung link-shard workers.

Every fan-out of the service and adaptive paths — replay links
(:mod:`repro.service.replay`), drive shards
(:mod:`repro.service.drive`) and adaptive links
(:mod:`repro.adaptive.recompute`) — runs through
:class:`ShardSupervisor`, on a pool backend or, with none, on a
:class:`~repro.parallel.backends.SerialBackend` in this process; both
go through the one loop of :mod:`repro.parallel.dispatch`.  Under
:data:`FAIL_FAST` one crashed shard fails the whole run; a restart
budget adds a restart policy on top of that loop:

* **crashes** — a shard whose payload raises (any exception: a
  supervisor restarts indiscriminately, unlike the resilience
  engine's retryable/fatal triage, because a restarted shard recovers
  its exact state from the journal and re-verifies every journaled
  decision) is resubmitted with an incremented attempt number, up to
  ``max_restarts`` extra attempts per shard;
* **hangs** — on process-pool backends the supervisor polls with a
  ``heartbeat_seconds`` wait instead of blocking forever; a shard
  running past ``shard_timeout_seconds`` is declared hung, its
  eventual (stale) result is discarded on arrival, and a fresh
  attempt is submitted.  The attempt number is an *epoch fence*: the
  stale worker keeps appending only to its own per-attempt journal
  file, which the fresh attempt reads read-only — the two never write
  the same file.

A caller hands the supervisor what each shard runs and that shard's
RNG stream; the supervisor builds every attempt's payload itself, from
a fresh copy of the stream, so a restarted shard starts from the
unadvanced stream even when its task advanced the stream in place.
The attempt reads its number from the ambient replication context —
the same mechanism :mod:`repro.resilience.faults` uses to address
injected faults at ``(shard, attempt)`` granularity.  A shard's result
(``LinkStats``, ``ShardDriveStats``, ``AdaptiveLinkStats``) crosses
the process boundary as itself, and :meth:`ShardSupervisor.run`
returns the results in shard-index order.

Determinism: restarts change *when* results arrive, never *what* they
contain.  Results are returned in shard-index order and, because a
recovered attempt replays the journal byte-exactly, a supervised run
with crashes produces the same summary bytes as a fault-free run.
Hung-shard recovery is the one place wall-clock time enters; the
stale result is discarded without merging its telemetry, so even hang
chaos leaves the summary bytes unchanged (observability counters
record that recovery happened).

A hung worker cannot be preempted, so it keeps its pool slot until
the run ends; then the dispatch loop recycles the pool and the hung
process is terminated, so an injected hang need not be finite.  A
worker process that dies (an OOM kill) takes down the attempts then
outstanding on the pool; each comes back as a failed result and is
restarted like any crash, on fresh workers.  On the serial path
there is no concurrency to poll; hangs are not preemptible and only
crash recovery applies.  Shards run there lowest ``(index, attempt)``
first, so a restarted shard runs right after its failed attempt,
before any later shard.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError, SimulationError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs.spans import span
from repro.parallel.backends import Backend
from repro.parallel.dispatch import Hang, dispatch
from repro.parallel.worker import (
    PayloadTask,
    WorkerPayload,
    WorkerResult,
    merge_result_telemetry,
)
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "FAIL_FAST",
    "ShardReport",
    "ShardSupervisor",
    "SupervisionPolicy",
]


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard to fight for each shard before giving up.

    Parameters
    ----------
    max_restarts:
        Extra attempts per shard beyond the first (0 = fail fast,
        exactly the unsupervised behavior plus bookkeeping).
    shard_timeout_seconds:
        Wall-clock budget per attempt before a shard is declared hung
        (process-pool backends only; None disables hang detection).
    heartbeat_seconds:
        Poll interval while waiting on pool results; bounds how stale
        the supervisor's view of a hung shard can get.
    backoff_seconds / backoff_factor:
        Sleep ``backoff_seconds * backoff_factor**attempt`` before
        resubmitting a failed shard.  The default 0.0 restarts
        immediately — right for deterministic journal recovery, where
        the failure is not transient congestion.
    """

    max_restarts: int = 2
    shard_timeout_seconds: Optional[float] = None
    heartbeat_seconds: float = 0.5
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0
    #: Injectable clocks for tests; not part of the policy's identity.
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self):
        check_integer(self.max_restarts, "max_restarts", minimum=0)
        if self.shard_timeout_seconds is not None:
            check_positive(self.shard_timeout_seconds, "shard_timeout_seconds")
        check_positive(self.heartbeat_seconds, "heartbeat_seconds")
        if self.backoff_seconds < 0:
            raise ParameterError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.backoff_factor < 1.0:
            raise ParameterError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Sleep before resubmitting ``attempt`` (0-based failed one)."""
        return self.backoff_seconds * self.backoff_factor**attempt


@dataclass
class ShardReport:
    """What supervision did for one shard (diagnostics, not results)."""

    link_index: int
    attempts: int = 1
    restarts: int = 0
    hangs: int = 0
    outcome: str = "ok"


#: No restarts: the first failed shard fails the run.  Every
#: unsupervised fan-out of the service and adaptive paths runs
#: through :class:`ShardSupervisor` with this policy.
FAIL_FAST = SupervisionPolicy(max_restarts=0)


class ShardSupervisor:
    """Run one task per shard to completion, restarting failures.

    Parameters
    ----------
    shards:
        One ``(task, stream)`` pair per shard, in index order: what
        the shard runs, ``task(index, stream) -> result`` (picklable
        for a process backend; a serial run never pickles it), and its
        RNG stream — a ``Generator``, or a tuple of them for a shard
        serving several links.  Every attempt runs on a fresh copy of
        the stream.
    backend:
        A :class:`~repro.parallel.backends.Backend`, or None to run
        the shards in this process on a
        :class:`~repro.parallel.backends.SerialBackend` (no hang
        detection).
    policy:
        The :class:`SupervisionPolicy` restart/timeout budget.
    """

    def __init__(
        self,
        shards: Sequence[Tuple[PayloadTask, object]],
        *,
        backend: Optional[Backend] = None,
        policy: Optional[SupervisionPolicy] = None,
    ):
        self.shards = tuple(shards)
        self.n_shards = check_integer(len(self.shards), "n_shards", minimum=1)
        self.backend = backend
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.reports: List[ShardReport] = []

    def run(self) -> list:
        """Every shard's result, in shard-index order.

        Raises the final attempt's error once a shard exhausts its
        restart budget (fail-fast semantics preserved — partial
        results are never returned).  Worker telemetry is merged in
        shard-index order, not completion order, so sketch and counter
        snapshots (and their canonical JSON) do not depend on which
        worker finished first.
        """
        self.reports = [ShardReport(i) for i in range(self.n_shards)]
        with span(
            "service.supervisor",
            shards=self.n_shards,
            backend="serial" if self.backend is None else self.backend.name,
            max_restarts=self.policy.max_restarts,
        ):
            results = self._run()
            for result in results:
                merge_result_telemetry(result)
            return [result.value for result in results]

    def _payload(
        self, index: int, attempt: int, telemetry: bool
    ) -> WorkerPayload:
        task, stream = self.shards[index]
        return WorkerPayload(
            index=index,
            attempt=attempt,
            task=task,
            generator=copy.deepcopy(stream),
            telemetry=telemetry,
            health_check=False,
        )

    def _register_failure(
        self, index: int, attempt: int, error: BaseException, *, hang: bool
    ) -> int:
        """Count a failed attempt; next attempt number, or raise."""
        report = self.reports[index]
        if hang:
            report.hangs += 1
            if _spans._ENABLED:
                _metrics.add("service.shard_hangs")
        if attempt >= self.policy.max_restarts:
            report.outcome = "exhausted"
            raise error
        report.restarts += 1
        report.attempts += 1
        if _spans._ENABLED:
            _metrics.add("service.shard_restarts")
        backoff = self.policy.backoff_for(attempt)
        if backoff > 0:
            self.policy.sleep(backoff)
        return attempt + 1

    def _run(self) -> List[WorkerResult]:
        policy = self.policy
        telemetry = _spans.is_enabled()
        results: List[Optional[WorkerResult]] = [None] * self.n_shards
        with dispatch(
            self.backend,
            timeout=policy.shard_timeout_seconds,
            heartbeat=policy.heartbeat_seconds,
            clock=policy.clock,
            stale_metric="service.shard_stale_results",
            recycle_metric="service.pool_recycled",
        ) as loop:

            def restart(
                index: int, attempt: int, error: BaseException, *, hang: bool
            ) -> None:
                attempt = self._register_failure(
                    index, attempt, error, hang=hang
                )
                loop.submit(self._payload(index, attempt, telemetry))

            for index in range(self.n_shards):
                loop.submit(self._payload(index, 0, telemetry))
            for event in loop.events():
                if isinstance(event, Hang):
                    restart(
                        event.index,
                        event.attempt,
                        SimulationError(
                            f"shard {event.index} attempt {event.attempt} "
                            f"exceeded {policy.shard_timeout_seconds}s "
                            "wall-clock budget (declared hung)"
                        ),
                        hang=True,
                    )
                elif event.failed:
                    restart(event.index, event.attempt, event.error, hang=False)
                else:
                    results[event.index] = event
                    self.reports[event.index].outcome = "ok"
        return results  # type: ignore[return-value]
