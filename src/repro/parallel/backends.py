"""Execution backends for replicated simulations.

A *backend* decides where replication payloads run: inline in the
calling process (:class:`SerialBackend`) or across a spawn-safe
process pool (:class:`ProcessPoolBackend`).  Both speak the same
session protocol —

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

The process pool uses the ``spawn`` start method by default: workers
import the library fresh, which is safe under every platform and
never inherits half-initialized state through ``fork``.  Payloads and
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
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.exceptions import ParameterError
from repro.obs import tracectx as _tracectx
from repro.parallel.worker import (
    WorkerPayload,
    WorkerResult,
    execute,
    pool_entry,
)
from repro.utils.validation import check_integer

__all__ = [
    "Backend",
    "BackendSession",
    "ProcessPoolBackend",
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
    """Futures bookkeeping over a live ProcessPoolExecutor."""

    def __init__(self, executor: concurrent.futures.Executor):
        self._executor = executor
        self._futures: dict = {}  # future -> (index, attempt)

    def _prepare(self, payload: WorkerPayload) -> WorkerPayload:
        """Trace-stamp the payload for the worker."""
        # Capture the ambient trace context at submit time so the
        # worker's spans join the supervising span's trace; an
        # explicitly provided context is left untouched.
        if payload.telemetry and payload.trace is None:
            context = _tracectx.inject()
            if context is not None:
                payload = dataclasses.replace(payload, trace=context)
        return payload

    def submit(self, payload: WorkerPayload) -> None:
        payload = self._prepare(payload)
        future = self._executor.submit(pool_entry, payload)
        self._futures[future] = (payload.index, payload.attempt)

    def next_completed(
        self, timeout: Optional[float] = None
    ) -> Optional[WorkerResult]:
        if not self._futures:
            raise RuntimeError("no payloads pending in this session")
        done, _ = concurrent.futures.wait(
            self._futures,
            timeout=timeout,
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        if not done:
            return None  # timeout expired with nothing finished
        # When several futures finished between waits, hand back the
        # lowest (index, attempt) rather than an arbitrary set member:
        # supervisors react to results as they collect them (raising,
        # checkpoint-flushing), so the collection order must not
        # depend on set iteration order.
        future = min(done, key=self._futures.__getitem__)
        del self._futures[future]
        return future.result()

    @property
    def pending(self) -> int:
        return len(self._futures)


class ProcessPoolBackend(Backend):
    """Run payloads across ``jobs`` worker processes.

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

    name = "process-pool"

    def __init__(self, jobs: int, *, start_method: str = "spawn"):
        self.jobs = check_integer(jobs, "jobs", minimum=1)
        if start_method not in multiprocessing.get_all_start_methods():
            raise ParameterError(
                f"start_method {start_method!r} not available on this "
                f"platform; choose from "
                f"{multiprocessing.get_all_start_methods()}"
            )
        self.start_method = start_method

    @contextmanager
    def session(self) -> Iterator[_PoolSession]:
        executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=multiprocessing.get_context(self.start_method),
        )
        try:
            yield _PoolSession(executor)
        finally:
            # Cancel whatever never started (deadline hit, error
            # propagating); tasks already running finish and are
            # discarded, so workers never outlive the session.
            executor.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:
        return (
            f"ProcessPoolBackend(jobs={self.jobs}, "
            f"start_method={self.start_method!r})"
        )


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


class _WarmPoolSession(_PoolSession):
    """A pool session that leaves the executor alive on teardown.

    The idle reaper introduces a race a spawn-per-session pool never
    has: ``threading.Timer.cancel()`` cannot stop a callback that has
    already started running, so the reaper's ``shutdown()`` can land
    *between* this session acquiring the executor and its payloads
    finishing — submits then raise ``RuntimeError`` ("cannot schedule
    new futures after shutdown") and in-flight futures die with
    ``BrokenProcessPool``/``CancelledError``.  Losing work to a
    memory-saving timer is not a failure the caller can reason about,
    so this session makes the reap invisible: submits transparently
    reacquire a fresh executor, and payloads whose futures died with
    the *reaped* executor are resubmitted on the restarted pool.
    Failures on a live executor (a worker OOM-killed mid-task) and on
    a :meth:`WarmPoolBackend.recycle`-fenced pool still surface —
    those are real faults the supervisor owns.
    """

    def __init__(self, backend: "WarmPoolBackend"):
        super().__init__(backend._ensure_executor())
        self._backend = backend
        #: future -> (payload, executor): enough to resubmit verbatim.
        self._records: dict = {}

    def _submit_future(self, payload):
        """Submit, reacquiring the executor if the reaper beat us."""
        try:
            return self._executor.submit(pool_entry, payload)
        except RuntimeError:
            # Either the reaper shut this executor down in the submit
            # window, or a worker death broke it; both restart
            # transparently (``_ensure_executor`` discards wrecks).
            self._executor = self._backend._ensure_executor()
            return self._executor.submit(pool_entry, payload)

    def submit(self, payload: WorkerPayload) -> None:
        payload = self._prepare(payload)
        future = self._submit_future(payload)
        self._futures[future] = (payload.index, payload.attempt)
        self._records[future] = (payload, self._executor)

    #: Upper bound on one internal wait slice.  A future the reaper
    #: cancelled dies in state CANCELLED *without* the notify step
    #: ``concurrent.futures.wait`` counts as done (only the executor's
    #: manager thread performs it, and the reaped executor's manager
    #: exits without doing so) — so waits are bounded and ``done()``
    #: (which does count bare CANCELLED) is polled between slices.
    _REAP_POLL_SECONDS = 0.05

    def next_completed(
        self, timeout: Optional[float] = None
    ) -> Optional[WorkerResult]:
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            if not self._futures:
                raise RuntimeError("no payloads pending in this session")
            done = [f for f in self._futures if f.done()]
            if not done:
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None  # timeout expired with nothing finished
                concurrent.futures.wait(
                    self._futures,
                    timeout=(
                        self._REAP_POLL_SECONDS
                        if remaining is None
                        else min(self._REAP_POLL_SECONDS, remaining)
                    ),
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                continue
            future = min(done, key=self._futures.__getitem__)
            del self._futures[future]
            payload, executor = self._records.pop(future)
            try:
                return future.result()
            except (
                concurrent.futures.CancelledError,
                concurrent.futures.process.BrokenProcessPool,
            ):
                if not self._backend._was_reaped(executor):
                    raise  # a real fault, not the idle reaper
                # The payload was a bystander of the idle reap:
                # resubmit it on the restarted pool and keep waiting.
                self._executor = self._backend._ensure_executor()
                replacement = self._submit_future(payload)
                self._futures[replacement] = (
                    payload.index,
                    payload.attempt,
                )
                self._records[replacement] = (payload, self._executor)

    def abandon(self) -> None:
        """Drop this session's claim on its futures.

        Unstarted futures are cancelled; running ones are left to
        finish and have their results discarded (the next session's
        bookkeeping never sees them).  The executor itself — and its
        warm workers — survives for the next session.
        """
        for future in list(self._futures):
            future.cancel()
        self._futures.clear()
        self._records.clear()


class WarmPoolBackend(ProcessPoolBackend):
    """A process pool whose workers persist across sessions.

    The spawn tax — process start plus a fresh library import per
    worker, payable on *every* ``session()`` of the plain
    :class:`ProcessPoolBackend` — is paid once here, then amortized
    across every ``replicated_clr`` call and service-replay shard that
    reuses the pool (fork-server-style).  Execution semantics are
    unchanged: the same payloads, the same collection order, the same
    bit-identical results; only process lifetime differs.

    Parameters
    ----------
    jobs, start_method:
        As for :class:`ProcessPoolBackend`.
    idle_timeout_seconds:
        Reap the workers after this long with no session activity
        (``None`` disables reaping).  The pool transparently restarts
        on next use; reaping only trades latency for memory.
    """

    name = "warm-pool"

    def __init__(
        self,
        jobs: int,
        *,
        start_method: str = "spawn",
        idle_timeout_seconds: Optional[float] = 120.0,
    ):
        super().__init__(jobs, start_method=start_method)
        self.idle_timeout_seconds = idle_timeout_seconds
        self._executor: Optional[concurrent.futures.Executor] = None
        self._reaper: Optional[threading.Timer] = None
        self._lock = threading.Lock()
        # Executors torn down *benignly* (idle reap / interpreter
        # exit), as opposed to fenced by recycle() or broken by a
        # worker death.  Sessions consult this to decide whether a
        # dead future is a bystander to resubmit or a real fault to
        # surface.  Weak references: a retired executor lives only as
        # long as some session still holds futures against it.
        self._reaped: "weakref.WeakSet" = weakref.WeakSet()
        atexit.register(self.shutdown)

    def _was_reaped(self, executor) -> bool:
        """True when ``executor`` was shut down by the idle reaper."""
        with self._lock:
            return executor in self._reaped

    def _ensure_executor(self) -> concurrent.futures.Executor:
        with self._lock:
            if self._reaper is not None:
                self._reaper.cancel()
                self._reaper = None
            broken = self._executor is not None and getattr(
                self._executor, "_broken", False
            )
            if broken:
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
    def session(self) -> Iterator[_WarmPoolSession]:
        pool_session = _WarmPoolSession(self)
        try:
            yield pool_session
        finally:
            pool_session.abandon()
            self._schedule_reap()

    def _schedule_reap(self) -> None:
        if self.idle_timeout_seconds is None:
            return
        with self._lock:
            if self._reaper is not None:
                self._reaper.cancel()
            timer = threading.Timer(
                self.idle_timeout_seconds, self.shutdown
            )
            timer.daemon = True
            timer.start()
            self._reaper = timer

    def shutdown(self) -> None:
        """Tear the persistent workers down (idle reap, interpreter exit).

        Safe to call repeatedly; the pool restarts lazily if used
        again afterwards.
        """
        with self._lock:
            if self._reaper is not None:
                self._reaper.cancel()
                self._reaper = None
            executor, self._executor = self._executor, None
            if executor is not None:
                self._reaped.add(executor)
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def recycle(self) -> None:
        """Forcibly replace the workers (supervisor fenced a hang).

        A spawn-per-session pool kills hung workers at session
        teardown for free; a warm pool must do it explicitly or the
        hung process occupies a slot forever.  Outstanding futures
        fail with ``BrokenProcessPool``, which supervisors already
        treat as a restartable shard failure.
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


#: Process-wide shared warm pools, keyed by (jobs, start_method).
#: Sharing is the point: every replicated call and replay shard that
#: asks for the same shape reuses the same warm workers.
_warm_pools: dict = {}


def warm_pool(
    jobs: int, *, start_method: str = "spawn"
) -> WarmPoolBackend:
    """The shared :class:`WarmPoolBackend` for ``jobs`` workers.

    Created on first request and cached process-wide; subsequent
    callers (and CLI invocations within one process) reuse the same
    warm workers instead of paying the spawn tax again.
    """
    key = (check_integer(jobs, "jobs", minimum=1), start_method)
    pool = _warm_pools.get(key)
    if pool is None:
        pool = _warm_pools[key] = WarmPoolBackend(
            key[0], start_method=start_method
        )
    return pool


def shutdown_warm_pools() -> None:
    """Reap every shared warm pool's workers (tests, graceful exit)."""
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
