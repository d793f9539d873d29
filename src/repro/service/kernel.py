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
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Sequence, Tuple

from repro.service.engine import (
    REASON_SHED,
    AdmissionDecision,
    AdmissionEngine,
)
from repro.service.tables import EFFECTIVE_BANDWIDTH_METHOD
from repro.service.workload import Workload

__all__ = ["LinkLane"]


class LinkLane:
    """One link's replay: engine, workload, departures, boundary check.

    The engine counts the link's decisions; the lane keeps what only a
    replay has: the departure heap, the carried-load integral and the
    per-request check against the offline boundary.  The workload
    arrays are held as Python lists: the step reads one element of
    each per request, and a list read is several times cheaper than a
    numpy scalar read (values are identical).
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
