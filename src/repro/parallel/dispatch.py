"""The one dispatch loop every fan-out runs on.

Fail-fast replications (:mod:`repro.queueing.replication`), the
resilience engine (:mod:`repro.resilience.engine`) and the shard
supervisor (:mod:`repro.service.supervision`) all submit
``(index, attempt)`` payloads to a :class:`~repro.parallel.backends.Backend`
session, wait with a timeout, fence attempts that outlive their
budget and replace a warm pool's workers after a fenced hang.  This
module is that loop, written once; each caller keeps only its policy
(what to submit, what a failure or a hang means, how to merge)::

    with dispatch(backend, timeout=budget, clock=clock) as loop:
        for payload in payloads:
            loop.submit(payload)
        for event in loop.events(stop=stop):
            if isinstance(event, Hang):
                ...  # fenced: its late result will be dropped
            else:
                ...  # a WorkerResult / WorkerBatchResult

With no backend the loop runs a
:class:`~repro.parallel.backends.SerialBackend`, so serial and pool
runs share every rule below.  The loop owns each live attempt's
submit clock (read only when a timeout is set, so an injected clock
sees no reads it did not ask for), the wait (the heartbeat cut to
the earliest attempt deadline, floored at 1 ms, or a blocking wait
when neither is set), the hang scan in sorted ``(index, attempt)``
order, the fence that drops a hung attempt's late result, and the
warm-pool ``recycle()`` on every exit path.  It merges no telemetry:
results reach the caller with their captured spans and metrics
untouched, so each caller keeps its own merge order.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Optional

from repro.obs import metrics as _metrics
from repro.parallel.backends import Backend, BackendSession, SerialBackend

__all__ = ["Dispatch", "Hang", "dispatch"]

#: Floor on a wait cut short by an attempt's deadline.
_MIN_WAIT_SECONDS = 0.001


class Hang(NamedTuple):
    """An attempt that outlived its budget and is now fenced off.

    ``now`` is the clock reading of the scan that declared it.
    """

    index: int
    attempt: int
    now: float


class Dispatch:
    """One live session: submit payloads, then iterate its events."""

    def __init__(
        self,
        session: BackendSession,
        *,
        timeout: Optional[float],
        heartbeat: Optional[float],
        clock: Callable[[], float],
        stale_metric: Optional[str],
    ):
        self._session = session
        self._timeout = timeout
        self._heartbeat = heartbeat
        self._clock = clock
        self._stale_metric = stale_metric
        #: (index, attempt) -> submit clock (None without a timeout),
        #: for every live attempt.
        self._launched: dict = {}
        #: Fenced (index, attempt) epochs whose results must be dropped.
        self.stale: set = set()

    def submit(self, payload) -> None:
        """Ship ``payload`` and start its attempt's clock."""
        self._session.submit(payload)
        self._launched[(payload.index, payload.attempt)] = (
            None if self._timeout is None else self._clock()
        )

    def _wait(self) -> Optional[float]:
        wait = self._heartbeat
        if self._timeout is not None and self._launched:
            now = self._clock()
            remaining = min(
                self._timeout - (now - at) for at in self._launched.values()
            )
            wait = max(
                _MIN_WAIT_SECONDS,
                remaining if wait is None else min(wait, remaining),
            )
        return wait

    def events(
        self, stop: Optional[Callable[[], bool]] = None
    ) -> Iterator[object]:
        """Results and :class:`Hang` notices until no attempt is live.

        ``stop`` is checked before each wait; a true answer ends the
        iteration with attempts still in flight (the session teardown
        cancels or discards them).  Results arrive in the session's
        collection order; a fenced attempt's late result is dropped
        and counted under ``stale_metric``.
        """
        while self._launched:
            if stop is not None and stop():
                return
            result = self._session.next_completed(timeout=self._wait())
            if result is None:
                # Nothing finished within the wait: scan for hangs.
                # The pool cannot preempt a running task, so an
                # overdue attempt is fenced off instead.
                if self._timeout is None:
                    continue
                now = self._clock()
                for key in sorted(self._launched):
                    if now - self._launched[key] < self._timeout:
                        continue
                    del self._launched[key]
                    self.stale.add(key)
                    yield Hang(key[0], key[1], now)
                continue
            key = (result.index, result.attempt)
            if key in self.stale:
                # A fenced-off attempt finally returned: drop the
                # result — and its telemetry — on the floor.  Its
                # replacement (or abandonment) is already decided.
                self.stale.discard(key)
                if self._stale_metric is not None:
                    _metrics.add(self._stale_metric)
                continue
            self._launched.pop(key, None)
            yield result


@contextmanager
def dispatch(
    backend: Optional[Backend] = None,
    *,
    timeout: Optional[float] = None,
    heartbeat: Optional[float] = None,
    clock: Callable[[], float] = time.monotonic,
    stale_metric: Optional[str] = None,
    recycle_metric: Optional[str] = None,
) -> Iterator[Dispatch]:
    """Open a session on ``backend`` and run the loop over it.

    ``backend`` None runs the payloads in this process on a
    :class:`~repro.parallel.backends.SerialBackend`.
    ``timeout`` is the wall-clock budget per attempt (None: no hang
    detection); ``heartbeat`` bounds each wait (None: wait until a
    result or the earliest deadline).  On exit — normal or by an
    exception — a fenced attempt that never returned would keep its
    worker busy on a persistent pool, so the backend's ``recycle()``
    (when it has one) replaces the workers, counted under
    ``recycle_metric``.  A spawn-per-session pool dies with its
    session anyway.
    """
    if backend is None:
        backend = SerialBackend()
    loop: Optional[Dispatch] = None
    try:
        with backend.session() as session:
            loop = Dispatch(
                session,
                timeout=timeout,
                heartbeat=heartbeat,
                clock=clock,
                stale_metric=stale_metric,
            )
            yield loop
    finally:
        recycle = getattr(backend, "recycle", None)
        if loop is not None and loop.stale and recycle is not None:
            recycle()
            if recycle_metric is not None:
                _metrics.add(recycle_metric)
