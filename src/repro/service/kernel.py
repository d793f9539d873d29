"""One link's replay state and the per-request decision step.

Every service path that replays a workload against an
:class:`~repro.service.engine.AdmissionEngine` — one link of
:func:`repro.service.replay.replay_link`, each link of a
:func:`repro.service.drive.drive` shard, and
:func:`repro.adaptive.recompute.adaptive_replay_link` — processes a
request with :meth:`LinkLane.step`: drain the departures due by the
arrival (integrating the carried load), decide, count, check the
decision against the paper's offline admissible N, and schedule the
departure.  The callers keep only what is theirs around that call:
journal writes and snapshots, the merged multi-link stream, the
drift detector and table swaps.

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
    """One link's replay: engine, workload, departures and counters.

    The workload arrays are held as Python lists: the step reads one
    element of each per request, and a list read is several times
    cheaper than a numpy scalar read (values are identical).
    """

    def __init__(
        self,
        engine: AdmissionEngine,
        link_id: str,
        workload: Workload,
        models: Sequence,
    ):
        self.engine = engine
        self.link_id = link_id
        self.link = engine.link(link_id)
        self.arrivals = workload.arrival_times.tolist()
        self.holdings = workload.holding_times.tolist()
        self.labels = workload.class_indices.tolist()
        self.models = list(models)
        self.departures: List[Tuple[float, str]] = []
        self.admitted = 0
        self.blocked = 0
        self.shed = 0
        self.fallbacks = 0
        self.peak_occupancy = 0
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
        link = self.link
        departures = self.departures
        carried = self.carried_load_seconds
        last = self.last_event_time
        while departures and departures[0][0] <= now:
            departed_at, connection_id = heappop(departures)
            carried += link.admitted_mean_load * (departed_at - last)
            last = departed_at
            self._release(self.link_id, connection_id)
        self.carried_load_seconds = carried + link.admitted_mean_load * (
            now - last
        )
        self.last_event_time = now

        occupancy_before = len(link.connections)
        connection_id = f"c{i}"
        decision = self._admit(
            self.link_id,
            self.models[self.labels[i]],
            connection_id,
            now=now if self._overload else None,
            force_fallback=force_fallback,
        )
        if decision.reason == REASON_SHED:
            self.shed += 1
            return "s", decision
        if decision.admitted:
            kind = "a"
            self.admitted += 1
            if decision.occupancy > self.peak_occupancy:
                self.peak_occupancy = decision.occupancy
            heappush(departures, (now + self.holdings[i], connection_id))
        else:
            kind = "b"
            self.blocked += 1
        if decision.fallback:
            # Decided against the fallback policy, not the boundary.
            self.fallbacks += 1
        elif self._count_policy and decision.admitted != (
            occupancy_before < decision.admissible
        ):
            self.boundary_violations += 1
        return kind, decision

    # -- exact state transport (journal snapshots) ---------------------------

    def capture(self, seq: int) -> dict:
        """The full lane state after event ``seq``, exactly.

        Floats as hex round-trips; the departure list in its live heap
        order (heap order is deterministic, so restoring the raw list
        reproduces identical pop sequences); accumulators as stored —
        a recovered attempt must never re-sum them.
        """
        engine = self.engine
        return {
            "seq": int(seq),
            "admitted": self.admitted,
            "blocked": self.blocked,
            "shed": self.shed,
            "fallbacks": self.fallbacks,
            "peak_occupancy": self.peak_occupancy,
            "boundary_violations": self.boundary_violations,
            "carried_load_seconds": self.carried_load_seconds.hex(),
            "last_event_time": self.last_event_time.hex(),
            "departures": [
                [t.hex(), connection_id]
                for t, connection_id in self.departures
            ],
            "link": engine.export_link_state(self.link_id),
            "tables": engine.tables.snapshot_state(),
            "overload": (
                engine.overload.state_dict()
                if engine.overload is not None
                else None
            ),
        }

    def restore(self, state: dict) -> None:
        """Restore :meth:`capture` output exactly."""
        engine = self.engine
        self.admitted = int(state["admitted"])
        self.blocked = int(state["blocked"])
        self.shed = int(state["shed"])
        self.fallbacks = int(state["fallbacks"])
        self.peak_occupancy = int(state["peak_occupancy"])
        self.boundary_violations = int(state["boundary_violations"])
        self.carried_load_seconds = float.fromhex(
            state["carried_load_seconds"]
        )
        self.last_event_time = float.fromhex(state["last_event_time"])
        self.departures = [
            (float.fromhex(t), connection_id)
            for t, connection_id in state["departures"]
        ]
        engine.restore_link_state(self.link_id, state["link"])
        engine.tables.restore_state(state["tables"])
        if state.get("overload") is not None and engine.overload is not None:
            engine.overload.restore_state(state["overload"])
