"""One link's replay state and the per-request decision step.

Every service path that replays a workload against an
:class:`~repro.service.engine.AdmissionEngine` — one link of
:func:`repro.service.replay.replay_link`, each link of a
:func:`repro.service.drive.drive` shard, and
:func:`repro.adaptive.recompute.adaptive_replay_link` — processes a
request with :meth:`LinkLane.step`: drain the departures due by the
arrival (integrating the carried load), decide (the engine counts the
decision), check it against the paper's offline admissible N, and
schedule the departure.  The callers keep only what is theirs around
that call: journal writes and snapshots, the merged multi-link
stream, the drift detector and table swaps.

Sharing one step is what keeps the paths' counters equal: a drive
link, an adaptive link with one regime and no adaptation, and a
``replay_link`` run on the same stream make the same decisions in
the same order.

:meth:`LinkLane.run` is ``replay_link``'s live loop when the link has
no journal and no fault cues.  Under a count policy a link below its
admissible N decides nothing: every request is admitted, and the
link's state is a running count of arrivals and departures.  So while
the headroom N - occupancy is at least :data:`HEADROOM`, on a link with
one class, no overload policy and telemetry off, ``run`` takes a chunk
of requests, finds in one vector pass the prefix admitted before the
first request that would be blocked, commits it through
:meth:`~repro.service.engine.AdmissionEngine.commit_run`, and sends
that request through :meth:`LinkLane.step`.  Every other request, and
every request of any other link, goes through ``step``: journaled and
faulted replays, ``drive``, ``adaptive_replay_link``,
effective-bandwidth mixes and telemetry-on runs.  Both paths leave
the same state, bit for bit: the counts, the mix in its order, the
departures (in pop order), the float accumulators and the table hits.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Sequence, Tuple

import numpy as np

from repro.obs import spans as _spans
from repro.service.engine import (
    REASON_SHED,
    AdmissionDecision,
    AdmissionEngine,
)
from repro.service.tables import EFFECTIVE_BANDWIDTH_METHOD
from repro.service.workload import Workload

__all__ = ["HEADROOM", "LinkLane"]

#: Headroom (admissible N - occupancy) below which :meth:`LinkLane.run`
#: steps each request.  A chunk's first H requests are always admitted
#: (each arrival raises the occupancy by at most one), so a chunk tried
#: here commits at least this many; nearer the boundary a chunk's fixed
#: cost is not repaid.
HEADROOM = 16
#: First and largest chunk :meth:`LinkLane.run` tries.  A chunk that is
#: all admitted doubles the next one; one cut short shrinks it to twice
#: the part committed.
_FIRST_CHUNK = 64
_MAX_CHUNK = 4096


class LinkLane:
    """One link's replay: engine, workload, departures, boundary check.

    The engine counts the link's decisions; the lane keeps what only a
    replay has: the departure heap, the carried-load integral and the
    per-request check against the offline boundary.  The workload
    arrays are held as Python lists: the step reads one element of
    each per request, and a list read is several times cheaper than a
    numpy scalar read (values are identical).  :meth:`run` slices the
    arrays themselves.
    """

    def __init__(
        self,
        engine: AdmissionEngine,
        workload: Workload,
        models: Sequence,
    ):
        self.engine = engine
        self.arrivals = workload.arrival_times.tolist()
        self.holdings = workload.holding_times.tolist()
        self.labels = workload.class_indices.tolist()
        self.models = list(models)
        self._arrival_array = np.asarray(workload.arrival_times, dtype=float)
        self._holding_array = np.asarray(workload.holding_times, dtype=float)
        self.departures: List[Tuple[float, str]] = []
        self.boundary_violations = 0
        #: Integral of carried mean load over time (cells/frame x s).
        self.carried_load_seconds = 0.0
        self.last_event_time = 0.0
        self._admit = engine.admit
        self._release = engine.release
        self._overload = engine.overload is not None
        # Only count policies have a homogeneous boundary to check.
        self._count_policy = engine.policy != EFFECTIVE_BANDWIDTH_METHOD
        # What run() may batch: one class and no overload policy.
        self._batchable = (
            self._count_policy
            and not self._overload
            and len(self.models) == 1
            and not np.any(workload.class_indices)
        )

    def step(
        self, i: int, force_fallback: bool = False
    ) -> Tuple[str, AdmissionDecision]:
        """Process request ``i``; its kind (``a``/``b``/``s``) and decision.

        ``force_fallback`` serves the decision from the fallback
        policy (journal recovery re-applying a breaker-open decision).
        """
        now = self.arrivals[i]
        engine = self.engine
        departures = self.departures
        carried = self.carried_load_seconds
        last = self.last_event_time
        while departures and departures[0][0] <= now:
            departed_at, connection_id = heappop(departures)
            carried += engine.admitted_mean_load * (departed_at - last)
            last = departed_at
            self._release(connection_id)
        self.carried_load_seconds = carried + engine.admitted_mean_load * (
            now - last
        )
        self.last_event_time = now

        occupancy_before = len(engine.connections)
        connection_id = f"c{i}"
        decision = self._admit(
            self.models[self.labels[i]],
            connection_id,
            now=now if self._overload else None,
            force_fallback=force_fallback,
        )
        if decision.reason == REASON_SHED:
            return "s", decision
        if decision.admitted:
            kind = "a"
            heappush(departures, (now + self.holdings[i], connection_id))
        else:
            kind = "b"
        # A fallback decision is checked against the fallback policy,
        # not the boundary.
        if (
            self._count_policy
            and not decision.fallback
            and decision.admitted != (occupancy_before < decision.admissible)
        ):
            self.boundary_violations += 1
        return kind, decision

    def run(self, start: int, stop: int) -> None:
        """Process requests ``start`` to ``stop - 1``, as many steps would.

        Requests the link admits below its boundary go in chunks (see
        the module docstring); the rest, and every request of a link
        that cannot batch, through :meth:`step`.  The lane and engine
        end in the state the steps leave.
        """
        step = self.step
        if not self._batchable:
            for i in range(start, stop):
                step(i)
            return
        engine = self.engine
        connections = engine.connections
        decision = engine.tables.peek(
            self.models[0], engine.capacity, engine.qos, engine.policy
        )
        # The boundary of the last decision seen (-1: none yet).
        admissible = -1 if decision is None else decision.admissible
        chunk = _FIRST_CHUNK
        i = start
        while i < stop:
            if (
                len(connections) + HEADROOM <= admissible
                and not _spans._ENABLED
            ):
                end = min(i + chunk, stop)
                committed = self._commit(i, end, admissible)
                i += committed
                if i == end:
                    chunk = min(2 * chunk, _MAX_CHUNK)
                    continue
                chunk = max(2 * committed, HEADROOM)
            _, decision = step(i)
            admissible = decision.admissible
            i += 1

    def _commit(self, start: int, stop: int, admissible: int) -> int:
        """Commit the requests from ``start`` the link admits; how many.

        Every request of ``start`` to ``stop - 1`` is assumed admitted,
        which holds up to the first one that finds ``admissible``
        connections up; the part before it is committed in one pass
        and its length returned.  The chunk is also cut at the first
        request that departs no later than it arrives (a zero holding,
        or one that rounds away), whose order the pass cannot reproduce.
        """
        arrivals = self._arrival_array[start:stop]
        departs = arrivals + self._holding_array[start:stop]
        instant = departs <= arrivals
        if instant.any():
            cut = int(instant.argmax())
            arrivals = arrivals[:cut]
            departs = departs[:cut]
        if arrivals.size == 0:
            return 0

        # A sorted list is a heap, so the lane keeps it sorted here.
        heap = self.departures
        heap.sort()
        heap_times = np.array([t for t, _ in heap], dtype=float)
        engine = self.engine
        up = len(engine.connections)
        # Occupancy before each arrival if every earlier one was
        # admitted: departures are drained at the first arrival at or
        # after them, and a request's own departure is after it.
        occupancy = (
            up
            + np.arange(arrivals.size)
            - np.searchsorted(heap_times, arrivals, side="right")
            - np.searchsorted(np.sort(departs), arrivals, side="right")
        )
        blocked = occupancy >= admissible
        if blocked.any():
            n = int(blocked.argmax())
            if n == 0:
                return 0
            arrivals = arrivals[:n]
            departs = departs[:n]
        n = arrivals.size
        last = arrivals[-1]

        # The events in the steps' order: by time, a departure before
        # an arrival at the same time.
        n_old = int(np.searchsorted(heap_times, last, side="right"))
        gone = departs <= last
        departures = np.sort(
            np.concatenate((heap_times[:n_old], departs[gone]))
        )
        admits = np.zeros(n + departures.size, dtype=bool)
        admits[
            np.arange(n) + np.searchsorted(departures, arrivals, side="right")
        ] = True
        times = np.empty(admits.size)
        times[admits] = arrivals
        times[~admits] = departures

        kept = np.flatnonzero(~gone)
        survivors = [f"c{j}" for j in (kept + start).tolist()]
        loads = engine.commit_run(
            self.models[0],
            admits,
            [connection_id for _, connection_id in heap[:n_old]],
            survivors,
        )
        steps = np.empty(admits.size + 1)
        steps[0] = self.carried_load_seconds
        steps[1:] = np.diff(times, prepend=self.last_event_time)
        steps[1:] *= loads
        self.carried_load_seconds = float(np.cumsum(steps)[-1])
        self.last_event_time = float(last)
        del heap[:n_old]
        heap.extend(zip(departs[kept].tolist(), survivors))
        heap.sort()
        # The occupancy the pass predicts must be the engine's.
        if len(engine.connections) != up + n - departures.size:
            self.boundary_violations += 1
        return n

    # -- exact state transport (journal snapshots) ---------------------------

    def capture(self, seq: int) -> dict:
        """The full lane state after event ``seq``, exactly.

        Floats as hex round-trips; the departure list in its live heap
        order (heap order is deterministic, so restoring the raw list
        reproduces identical pop sequences); accumulators as stored —
        a recovered attempt must never re-sum them.  The engine's own
        state (mix, counts, overload) is its :meth:`~repro.service
        .engine.AdmissionEngine.export_state`.
        """
        engine = self.engine
        return {
            "seq": int(seq),
            "boundary_violations": self.boundary_violations,
            "carried_load_seconds": self.carried_load_seconds.hex(),
            "last_event_time": self.last_event_time.hex(),
            "departures": [
                [t.hex(), connection_id]
                for t, connection_id in self.departures
            ],
            "engine": engine.export_state(),
            "tables": engine.tables.snapshot_state(),
        }

    def restore(self, state: dict) -> None:
        """Restore :meth:`capture` output exactly."""
        engine = self.engine
        self.boundary_violations = int(state["boundary_violations"])
        self.carried_load_seconds = float.fromhex(
            state["carried_load_seconds"]
        )
        self.last_event_time = float.fromhex(state["last_event_time"])
        self.departures = [
            (float.fromhex(t), connection_id)
            for t, connection_id in state["departures"]
        ]
        engine.restore_state(state["engine"])
        engine.tables.restore_state(state["tables"])
