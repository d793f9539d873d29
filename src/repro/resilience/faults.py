"""Deterministic fault injection for the replication engine.

Proving the recovery paths of :mod:`repro.resilience.engine` needs
faults that arrive on schedule, not by luck.  :func:`inject_faults`
wraps an :class:`~repro.queueing.multiplexer.ATMMultiplexer` so that
chosen ``sample_aggregate`` calls — the single choke point both
:meth:`~repro.queueing.multiplexer.ATMMultiplexer.simulate_clr` and
the CLR-curve path go through, one call per replication attempt —
misbehave in one of four ways:

* ``fail``  — raise :class:`InjectedFault` (a retryable
  :class:`~repro.exceptions.SimulationError`);
* ``crash`` — raise :class:`InjectedCrash` (a ``RuntimeError`` the
  engine deliberately does *not* catch: it simulates a killed batch,
  leaving the checkpoint behind for resume);
* ``nan``   — poison the returned arrivals with a NaN, exercising the
  :func:`~repro.utils.validation.check_simulation_health` guard;
* ``hang``  — sleep for a configured duration before proceeding,
  exercising deadline-bounded degradation.

Call numbers are 1-based and count every ``sample_aggregate`` call on
the wrapped multiplexer, retries included — so a schedule like
``fail={1, 2}`` means "replication 0 fails on its first attempt and
on its first retry", deterministically.

A call counter cannot survive a process pool — each worker would
count its own calls from 1, and completion order is nondeterministic
anyway.  For parallel runs (and as a clearer spelling in serial ones)
the ``*_at`` schedules key faults by ``(replication index, attempt)``
instead, read back from
:func:`repro.utils.replication_context.current_attempt`, which the
worker wrapper publishes around every attempt on every backend.  ``fail_at={(0, 0), (0, 1)}`` is the addressed spelling of
the example above, and it means the same thing in every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.queueing.multiplexer import ATMMultiplexer
from repro.utils.replication_context import current_attempt

__all__ = [
    "FaultInjector",
    "FaultInjectedModel",
    "FaultyDecisionTables",
    "InjectedCrash",
    "InjectedFault",
    "ServiceFaultPlan",
    "ShardCues",
    "inject_faults",
]


class InjectedFault(SimulationError):
    """A scheduled, retryable failure raised by the fault injector."""


class InjectedCrash(RuntimeError):
    """A scheduled crash the resilience engine must NOT absorb.

    Stands in for a SIGKILL / OOM / power loss in tests: it aborts the
    batch mid-run while the checkpoint file keeps the completed
    replications for a later resume.
    """


def _attempt_keys(pairs: Iterable[Tuple[int, int]]) -> frozenset:
    return frozenset((int(i), int(a)) for i, a in pairs)


class FaultInjector:
    """Shared call counter plus the schedule of misbehaviours.

    Two addressing schemes coexist: call-counter schedules (``fail``,
    ``crash``, ``nan``, ``hang`` — 1-based call numbers, serial runs
    only) and attempt-addressed schedules (``fail_at``, ``crash_at``,
    ``nan_at``, ``hang_at`` — ``(replication index, attempt)`` pairs,
    deterministic under any backend).
    """

    def __init__(
        self,
        *,
        fail: Iterable[int] = (),
        crash: Iterable[int] = (),
        nan: Iterable[int] = (),
        hang: Optional[Mapping[int, float]] = None,
        fail_at: Iterable[Tuple[int, int]] = (),
        crash_at: Iterable[Tuple[int, int]] = (),
        nan_at: Iterable[Tuple[int, int]] = (),
        hang_at: Optional[Mapping[Tuple[int, int], float]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.fail = frozenset(int(c) for c in fail)
        self.crash = frozenset(int(c) for c in crash)
        self.nan = frozenset(int(c) for c in nan)
        self.hang = {int(c): float(s) for c, s in (hang or {}).items()}
        self.fail_at = _attempt_keys(fail_at)
        self.crash_at = _attempt_keys(crash_at)
        self.nan_at = _attempt_keys(nan_at)
        self.hang_at = {
            (int(i), int(a)): float(s)
            for (i, a), s in (hang_at or {}).items()
        }
        self._sleep = sleep
        self.calls = 0

    def begin_call(self) -> int:
        """Register one replication attempt; hang/fail/crash on cue."""
        self.calls += 1
        call = self.calls
        attempt = current_attempt()
        if call in self.hang:
            self._sleep(self.hang[call])
        if attempt is not None and attempt in self.hang_at:
            self._sleep(self.hang_at[attempt])
        if call in self.crash or (
            attempt is not None and attempt in self.crash_at
        ):
            raise InjectedCrash(
                f"injected crash on call {call} (attempt {attempt})"
            )
        if call in self.fail or (
            attempt is not None and attempt in self.fail_at
        ):
            raise InjectedFault(
                f"injected failure on call {call} (attempt {attempt})"
            )
        return call

    def maybe_poison(self, arrivals: np.ndarray, call: int) -> np.ndarray:
        """NaN-poison the arrivals of a scheduled call."""
        attempt = current_attempt()
        if call not in self.nan and not (
            attempt is not None and attempt in self.nan_at
        ):
            return arrivals
        poisoned = np.array(arrivals, dtype=float, copy=True)
        poisoned[poisoned.shape[0] // 2] = np.nan
        return poisoned


class FaultInjectedModel:
    """Delegating traffic-model proxy that routes sampling via a
    :class:`FaultInjector`.  Everything except ``sample_aggregate``
    (statistics, frame duration, repr) is forwarded to the wrapped
    model, so fingerprints and multiplexer geometry are unchanged —
    a checkpoint written under injection resumes cleanly without it.
    """

    def __init__(self, model: object, injector: FaultInjector):
        self._model = model
        self.injector = injector

    def sample_aggregate(
        self, n_frames: int, n_sources: int, rng=None
    ) -> np.ndarray:
        call = self.injector.begin_call()
        arrivals = self._model.sample_aggregate(n_frames, n_sources, rng)
        return self.injector.maybe_poison(arrivals, call)

    def __getattr__(self, name: str):
        # During unpickling (spawn workers) __getattr__ fires before
        # instance state exists; dunder/underscore lookups must raise
        # rather than recurse through the missing ``_model``.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._model, name)

    def __repr__(self) -> str:
        return repr(self._model)


# -- service-layer chaos ------------------------------------------------------


@dataclass(frozen=True)
class ShardCues:
    """The chaos cues addressed to one ``(link shard, attempt)``."""

    #: Raise :class:`InjectedCrash` before processing this request.
    crash_request: Optional[int] = None
    #: ``(request, seconds)`` — sleep before processing the request,
    #: simulating a hung worker the supervisor must time out.
    hang: Optional[Tuple[int, float]] = None
    #: Tear the journal append of this event seq (half-written line,
    #: then crash), proving torn-tail recovery.
    torn_event: Optional[int] = None
    #: Requests whose *primary* table lookup raises
    #: :class:`InjectedFault`, driving the circuit breaker.
    table_faults: frozenset = frozenset()

    @property
    def empty(self) -> bool:
        return (
            self.crash_request is None
            and self.hang is None
            and self.torn_event is None
            and not self.table_faults
        )


#: The cues of a shard no chaos is addressed to.
NO_CUES = ShardCues()


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Deterministic chaos schedule for the admission service.

    Every schedule keys on ``(link index, attempt)`` — the same
    addressing the replication injector uses — so a fault fires on
    exactly one epoch of one shard under any backend, and a restarted
    attempt runs clean unless the plan says otherwise.  The plan is a
    frozen, picklable value: it ships to worker processes inside the
    replay task.

    Parameters
    ----------
    crash_shard_at:
        ``{(link, attempt): request}`` — the shard dies (a
        :class:`InjectedCrash`) immediately before processing
        ``request``.
    hang_shard_at:
        ``{(link, attempt): (request, seconds)}`` — the shard sleeps
        ``seconds`` before processing ``request``; with a supervisor
        shard timeout this exercises the hang-detection path.
    torn_write_at:
        ``{(link, attempt): event_seq}`` — the journal append of
        ``event_seq`` is half-written, then the shard dies.
    table_corrupt_at:
        ``{(link, attempt): iterable of requests}`` — the primary
        decision-table lookup for those requests raises, exercising
        the circuit breaker / peak-rate fallback.
    """

    crash_shard_at: Mapping[Tuple[int, int], int] = None
    hang_shard_at: Mapping[Tuple[int, int], Tuple[int, float]] = None
    torn_write_at: Mapping[Tuple[int, int], int] = None
    table_corrupt_at: Mapping[Tuple[int, int], Iterable[int]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "crash_shard_at",
            {
                (int(i), int(a)): int(r)
                for (i, a), r in (self.crash_shard_at or {}).items()
            },
        )
        object.__setattr__(
            self,
            "hang_shard_at",
            {
                (int(i), int(a)): (int(r), float(s))
                for (i, a), (r, s) in (self.hang_shard_at or {}).items()
            },
        )
        object.__setattr__(
            self,
            "torn_write_at",
            {
                (int(i), int(a)): int(e)
                for (i, a), e in (self.torn_write_at or {}).items()
            },
        )
        object.__setattr__(
            self,
            "table_corrupt_at",
            {
                (int(i), int(a)): frozenset(int(r) for r in requests)
                for (i, a), requests in (self.table_corrupt_at or {}).items()
            },
        )

    def shard_cues(self, link_index: int, attempt: int) -> ShardCues:
        """The cues one shard epoch must obey (usually none)."""
        key = (int(link_index), int(attempt))
        cues = ShardCues(
            crash_request=self.crash_shard_at.get(key),
            hang=self.hang_shard_at.get(key),
            torn_event=self.torn_write_at.get(key),
            table_faults=self.table_corrupt_at.get(key, frozenset()),
        )
        return cues


class FaultyDecisionTables:
    """Delegating decision-table proxy that fails cued lookups.

    The replay loop publishes the request index on
    :attr:`current_request` before each admission; a *primary*-policy
    lookup for a cued request raises :class:`InjectedFault` (fallback
    lookups pass through — the breaker's escape hatch must work).
    Everything else (``peek``, counters, snapshot/restore) is
    forwarded to the wrapped cache untouched.
    """

    def __init__(self, tables, faulty_requests, primary_method: str):
        self._tables = tables
        self._faulty_requests = frozenset(
            int(r) for r in faulty_requests
        )
        self._primary_method = primary_method
        self.current_request: Optional[int] = None

    def lookup(self, model, link_capacity, qos, method, *, key=None):
        if (
            method == self._primary_method
            and self.current_request in self._faulty_requests
        ):
            raise InjectedFault(
                f"injected decision-table fault on request "
                f"{self.current_request}"
            )
        return self._tables.lookup(
            model, link_capacity, qos, method, key=key
        )

    def __getattr__(self, name: str):
        # Same unpickling guard as FaultInjectedModel: underscore
        # lookups must raise, not recurse through a missing _tables.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._tables, name)

    def __repr__(self) -> str:
        return f"FaultyDecisionTables({self._tables!r})"


def inject_faults(
    multiplexer: ATMMultiplexer,
    *,
    fail: Iterable[int] = (),
    crash: Iterable[int] = (),
    nan: Iterable[int] = (),
    hang: Optional[Mapping[int, float]] = None,
    fail_at: Iterable[Tuple[int, int]] = (),
    crash_at: Iterable[Tuple[int, int]] = (),
    nan_at: Iterable[Tuple[int, int]] = (),
    hang_at: Optional[Mapping[Tuple[int, int], float]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[ATMMultiplexer, FaultInjector]:
    """A faulty clone of ``multiplexer`` plus its injector.

    The clone shares the original's geometry (sources, bandwidth,
    buffer) but samples through a :class:`FaultInjectedModel`; the
    returned :class:`FaultInjector` exposes the live call count for
    assertions.  ``*_at`` schedules address faults by ``(replication
    index, attempt)`` and work identically under process pools, where
    the 1-based call counter cannot (each worker counts alone —
    ``injector.calls`` reflects only the current process).
    """
    injector = FaultInjector(
        fail=fail, crash=crash, nan=nan, hang=hang,
        fail_at=fail_at, crash_at=crash_at, nan_at=nan_at,
        hang_at=hang_at, sleep=sleep,
    )
    model = FaultInjectedModel(multiplexer.model, injector)
    faulty = ATMMultiplexer(
        model,
        multiplexer.n_sources,
        multiplexer.c_per_source,
        buffer_cells=multiplexer.buffer_cells,
    )
    return faulty, injector
