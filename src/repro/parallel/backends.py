"""Execution backends for replicated simulations.

A *backend* decides where replication payloads run: inline in the
calling process (:class:`SerialBackend`) or across a pool of
persistent worker processes (:class:`WarmPoolBackend`).  Both speak
the same session protocol —

    with backend.session() as session:
        session.submit(payload)          # any number of times
        result = session.next_completed()  # blocks; completion order

— and both return :class:`~repro.parallel.worker.WorkerResult`
objects.  The protocol has one consumer, the loop of
:mod:`repro.parallel.dispatch`, which every fan-out runs on: results
are collected **in completion order, pooled in replication-index
order**.
That discipline is the determinism contract: the pooled CLR, the
summary fields, and the checkpoint file of a parallel run are
bit-identical to a serial run on the same seed, regardless of which
worker finishes first (see ``docs/PERFORMANCE.md``).

The pool uses the ``spawn`` start method by default: workers import
the library fresh, which is safe under every platform and never
inherits half-initialized state through ``fork``.  Payloads and
results must pickle; the replication tasks in
:mod:`repro.queueing.replication` are module-level classes for
exactly this reason.

A process-wide default backend can be installed (:func:`use_backend`)
so the experiment runner's ``--jobs N`` flag reaches every replicated
simulation without threading a parameter through the figure modules —
the same pattern :mod:`repro.resilience.policy` uses.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import dataclasses
import heapq
import itertools
import multiprocessing
import threading
import time
import weakref
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.exceptions import ParameterError
from repro.obs import tracectx as _tracectx
from repro.parallel.worker import (
    WorkerPayload,
    WorkerResult,
    execute,
    failed_result,
    pool_entry,
)
from repro.utils.validation import check_integer

__all__ = [
    "Backend",
    "BackendSession",
    "SerialBackend",
    "WarmPoolBackend",
    "get_default_backend",
    "resolve_backend",
    "set_default_backend",
    "shutdown_warm_pools",
    "use_backend",
    "warm_pool",
]


class BackendSession:
    """Protocol for one batch of payloads (duck-typed, not enforced)."""

    def submit(self, payload: WorkerPayload) -> None:
        raise NotImplementedError

    def next_completed(
        self, timeout: Optional[float] = None
    ) -> Optional[WorkerResult]:
        """The next finished payload; None when ``timeout`` expires.

        ``timeout=None`` blocks until a result is ready (the legacy
        contract).  A finite timeout lets supervisors detect hung
        workers instead of waiting forever; inline backends complete
        synchronously and never time out.
        """
        raise NotImplementedError

    @property
    def pending(self) -> int:
        raise NotImplementedError


class Backend:
    """Protocol: an execution venue for replication payloads.

    Implementations expose ``jobs`` (worker parallelism, >= 1),
    ``name`` (for logs and benchmarks), and ``session()`` — a context
    manager yielding a :class:`BackendSession`.
    """

    jobs: int = 1
    name: str = "backend"

    @contextmanager
    def session(self) -> Iterator[BackendSession]:
        raise NotImplementedError
        yield  # pragma: no cover

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self.jobs})"


class _SerialSession(BackendSession):
    """Inline execution: payloads run lazily on collection.

    The lowest pending ``(index, attempt)`` runs first — the tie rule
    :class:`_PoolSession` applies to simultaneous completions — so a
    retry submitted after later indices still runs before them, as an
    in-order loop would run it (call-counted fault schedules rely on
    that order).
    """

    def __init__(self) -> None:
        self._queue: list = []
        self._submitted = itertools.count()

    def submit(self, payload: WorkerPayload) -> None:
        heapq.heappush(
            self._queue,
            (payload.index, payload.attempt, next(self._submitted), payload),
        )

    def next_completed(
        self, timeout: Optional[float] = None
    ) -> Optional[WorkerResult]:
        # Inline execution completes synchronously; a timeout cannot
        # fire (there is no moment at which work is pending but not
        # finished), so it is accepted and ignored.
        if not self._queue:
            raise RuntimeError("no payloads pending in this session")
        return execute(heapq.heappop(self._queue)[-1])

    @property
    def pending(self) -> int:
        return len(self._queue)


class SerialBackend(Backend):
    """Run payloads inline, lowest ``(index, attempt)`` first.

    Exercises the identical collection/pooling code path as the
    process pool — with deterministic completion order and no pickling
    — which makes it the reference implementation the pool is tested
    against.  Every replicated or sharded call without a backend runs
    on one (see :func:`repro.parallel.dispatch.dispatch`).
    """

    jobs = 1
    name = "serial"

    @contextmanager
    def session(self) -> Iterator[_SerialSession]:
        yield _SerialSession()


class _PoolSession(BackendSession):
    """One batch of futures on a :class:`WarmPoolBackend`'s workers.

    Every future's outcome comes back as a result: the task's value,
    the task's own failure (as :func:`~repro.parallel.worker.pool_entry`
    returns it), or — when its worker died or a shutdown cancelled it
    — a failed, non-retryable result for its payload
    (:func:`~repro.parallel.worker.failed_result`), which the caller
    handles like any crashed attempt.
    """

    #: Upper bound on one wait slice.  A future cancelled by an
    #: executor shutdown never wakes ``concurrent.futures.wait`` (only
    #: the executor's manager thread notifies waiters, and a shut-down
    #: executor's manager may exit first), so waits are sliced and
    #: ``done()``, which counts a bare cancel, is polled between them.
    _POLL_SECONDS = 0.05

    def __init__(self, backend: "WarmPoolBackend"):
        self._backend = backend
        self._executor = backend._ensure_executor()
        self._futures: dict = {}  # future -> payload

    def submit(self, payload: WorkerPayload) -> None:
        # Capture the ambient trace context at submit time so the
        # worker's spans join the supervising span's trace; an
        # explicitly provided context is left untouched.
        if payload.telemetry and payload.trace is None:
            context = _tracectx.inject()
            if context is not None:
                payload = dataclasses.replace(payload, trace=context)
        try:
            future = self._executor.submit(pool_entry, payload)
        except RuntimeError:
            # The executor was shut down, or a dead worker broke it:
            # take the pool's live one (``_ensure_executor`` respawns).
            self._executor = self._backend._ensure_executor()
            future = self._executor.submit(pool_entry, payload)
        self._futures[future] = payload

    def next_completed(
        self, timeout: Optional[float] = None
    ) -> Optional[WorkerResult]:
        if not self._futures:
            raise RuntimeError("no payloads pending in this session")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            done = [future for future in self._futures if future.done()]
            if done:
                break
            wait = self._POLL_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None  # timeout expired with nothing finished
                wait = min(wait, remaining)
            concurrent.futures.wait(
                self._futures,
                timeout=wait,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
        # When several futures finished between waits, hand back the
        # lowest (index, attempt) rather than an arbitrary set member:
        # supervisors react to results as they collect them (raising,
        # checkpoint-flushing), so the collection order must not
        # depend on set iteration order.
        future = min(
            done,
            key=lambda f: (self._futures[f].index, self._futures[f].attempt),
        )
        payload = self._futures.pop(future)
        try:
            return future.result()
        except (concurrent.futures.CancelledError, BrokenProcessPool) as exc:
            return failed_result(payload, exc)

    @property
    def pending(self) -> int:
        return len(self._futures)


def _warm_import() -> None:
    """Executor initializer: pay the worker import tax once, up front.

    Under ``spawn`` every worker re-imports the library; doing it in
    the initializer (instead of lazily inside the first payload) moves
    that cost out of the first session's critical path.
    """
    import repro.queueing.replication  # noqa: F401
    import repro.service.replay  # noqa: F401


def _noop() -> None:
    """A do-nothing task; submitting one per slot forces worker start."""
    return None


class WarmPoolBackend(Backend):
    """Run payloads across ``jobs`` persistent worker processes.

    The workers start on the first session (or on :meth:`warm`) and
    live until :meth:`shutdown` or interpreter exit, so the spawn tax
    — process start plus a fresh library import per worker — is paid
    once, then amortized across every ``replicated_clr`` call and
    service shard that reuses the pool.  :meth:`recycle` replaces them
    after a fenced hang, and the next submit respawns them after a
    worker dies.  Execution semantics do not depend on process
    lifetime: the same payloads, the same collection order, the same
    bit-identical results.

    Parameters
    ----------
    jobs:
        Worker process count (>= 1).  Speedup saturates at the number
        of physical cores; replication counts need not divide evenly.
    start_method:
        ``multiprocessing`` start method; the default ``spawn`` is
        safe everywhere (workers import the library fresh).  ``fork``
        trades that safety for faster worker start on POSIX.
    """

    name = "warm-pool"

    def __init__(self, jobs: int, *, start_method: str = "spawn"):
        self.jobs = check_integer(jobs, "jobs", minimum=1)
        if start_method not in multiprocessing.get_all_start_methods():
            raise ParameterError(
                f"start_method {start_method!r} not available on this "
                f"platform; choose from "
                f"{multiprocessing.get_all_start_methods()}"
            )
        self.start_method = start_method
        self._executor: Optional[concurrent.futures.Executor] = None
        self._lock = threading.Lock()
        _live_pools.add(self)

    def _ensure_executor(self) -> concurrent.futures.Executor:
        with self._lock:
            if self._executor is not None and getattr(
                self._executor, "_broken", False
            ):
                # A worker died hard (OOM kill, segfault); discard the
                # wreck and respawn rather than failing every future
                # session with BrokenProcessPool.
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            if self._executor is None:
                self._executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context(
                        self.start_method
                    ),
                    initializer=_warm_import,
                )
            return self._executor

    def warm(self) -> "WarmPoolBackend":
        """Start every worker and wait for its imports to finish.

        Optional — the pool warms lazily on first session — but
        benchmarks and latency-sensitive callers use it to move the
        one-time spawn cost out of the measured region.
        """
        executor = self._ensure_executor()
        concurrent.futures.wait(
            [executor.submit(_noop) for _ in range(self.jobs)]
        )
        return self

    @contextmanager
    def session(self) -> Iterator[_PoolSession]:
        pool_session = _PoolSession(self)
        try:
            yield pool_session
        finally:
            # Cancel what never started; a running task finishes and
            # its result is discarded.  The workers stay for the next
            # session.
            for future in pool_session._futures:
                future.cancel()

    def shutdown(self) -> None:
        """Tear the workers down (graceful exit, tests).

        Safe to call repeatedly; the pool restarts lazily if used
        again afterwards.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def recycle(self) -> None:
        """Terminate the workers now (the dispatch loop fenced a hang).

        A running task cannot be preempted, so a hung one would hold
        its worker slot for every later session.  Futures still
        outstanding fail, and their session reports each as a failed
        attempt; fresh workers start on the next submit.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            processes = list(
                (getattr(executor, "_processes", None) or {}).values()
            )
            executor.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    process.terminate()
                except Exception:
                    pass

    def __repr__(self) -> str:
        return (
            f"WarmPoolBackend(jobs={self.jobs}, "
            f"start_method={self.start_method!r})"
        )


#: Every pool not yet garbage-collected.  One exit hook shuts down
#: those still alive; a weak set, so a dropped pool is freed.
_live_pools: "weakref.WeakSet[WarmPoolBackend]" = weakref.WeakSet()


@atexit.register
def _shutdown_live_pools() -> None:
    """Shut down every live pool's workers (interpreter exit)."""
    for pool in list(_live_pools):
        pool.shutdown()


#: Process-wide shared warm pools, keyed by worker count.  Sharing is
#: the point: every replicated call and replay shard that asks for the
#: same ``jobs`` reuses the same warm workers.
_warm_pools: dict = {}


def warm_pool(jobs: int) -> WarmPoolBackend:
    """The shared :class:`WarmPoolBackend` for ``jobs`` workers.

    Created on first request and cached process-wide; subsequent
    callers (and CLI invocations within one process) reuse the same
    warm workers instead of paying the spawn tax again.
    """
    jobs = check_integer(jobs, "jobs", minimum=1)
    pool = _warm_pools.get(jobs)
    if pool is None:
        pool = _warm_pools[jobs] = WarmPoolBackend(jobs)
    return pool


def shutdown_warm_pools() -> None:
    """Shut every shared warm pool's workers down (tests, graceful exit)."""
    for pool in list(_warm_pools.values()):
        pool.shutdown()


_default_backend: Optional[Backend] = None


def set_default_backend(backend: Optional[Backend]) -> None:
    """Install ``backend`` as the process-wide default (None clears)."""
    global _default_backend
    _default_backend = backend


def get_default_backend() -> Optional[Backend]:
    """The installed default backend, or None (a :class:`SerialBackend`)."""
    return _default_backend


@contextmanager
def use_backend(backend: Optional[Backend]) -> Iterator[None]:
    """Temporarily install ``backend`` as the default; restores on exit."""
    previous = get_default_backend()
    set_default_backend(backend)
    try:
        yield
    finally:
        set_default_backend(previous)


def resolve_backend(
    backend: Optional[Backend] = None,
    jobs: Optional[int] = None,
) -> Optional[Backend]:
    """The backend a replicated call should use, or None for serial.

    None means a :class:`SerialBackend` on the dispatch loop.
    Precedence: an explicit ``backend`` wins; else ``jobs`` builds one
    (1 -> None, N > 1 -> the shared persistent pool from
    :func:`warm_pool`); else the process-wide default installed via
    :func:`use_backend` applies.  Passing both ``backend`` and ``jobs``
    is ambiguous and rejected.
    """
    if backend is not None and jobs is not None:
        raise ParameterError(
            "pass either backend= or jobs=, not both "
            f"(got backend={backend!r}, jobs={jobs!r})"
        )
    if backend is not None:
        return backend
    if jobs is not None:
        jobs = check_integer(jobs, "jobs", minimum=1)
        if jobs == 1:
            return None
        return warm_pool(jobs)
    return get_default_backend()
