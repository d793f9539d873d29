"""Per-link admission telemetry, recorded locally and flushed in bulk.

Every admission decision is timed and counted while :mod:`repro.obs`
is enabled, but none of it touches the process-wide registry on the
request path.  Each link of an :class:`~repro.service.engine
.AdmissionEngine` owns a :class:`LinkRecorder` holding plain local
state:

* admitted / blocked / shed / released / fallback counts;
* an occupancy -> count map (occupancy after each decision);
* a buffer of admit latencies (ns), folded into a link-local
  :class:`~repro.obs.sketch.QuantileSketch` every
  :data:`LATENCY_FOLD` samples, so memory stays bounded however many
  requests the link serves.

:meth:`LinkRecorder.flush` publishes that state through the exact
batched sketch ingestion (:meth:`QuantileSketch.observe_counts`) and
one counter add per instrument, then starts over.  Counters are
integer sums and sketches are integer bucket counts plus extrema, so
the registry ends in exactly the state per-request recording would
have left: the same instruments, counter values, and byte-identical
``service.occupancy.<link>`` sketches.  The flush points — the end of
each replay/drive/adaptive loop, and ``AdmissionFrontend.stats()`` /
``close()`` — are listed in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from collections import Counter as _Tally
from typing import Dict, List

from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs.sketch import QuantileSketch

__all__ = ["AGGREGATE_LATENCY", "LATENCY_FOLD", "LinkRecorder"]

#: Latency samples a link buffers before folding them into its sketch.
LATENCY_FOLD = 4096

#: The aggregate admit-latency sketch every link's latencies merge into.
AGGREGATE_LATENCY = "service.admit_latency_ns"


class LinkRecorder:
    """One link's unflushed admission telemetry.

    The engine calls :meth:`decided` / :meth:`shed_at` per request and
    bumps :attr:`released` / :attr:`fallbacks` directly; nothing here
    takes a lock or looks up an instrument by name.
    """

    __slots__ = (
        "link_id",
        "admitted",
        "blocked",
        "shed",
        "released",
        "fallbacks",
        "occupancy",
        "latencies",
        "latency",
        "_latency_name",
        "_occupancy_name",
    )

    def __init__(self, link_id: str):
        self.link_id = link_id
        self._latency_name = f"{AGGREGATE_LATENCY}.{link_id}"
        self._occupancy_name = f"service.occupancy.{link_id}"
        self._clear()

    def _clear(self) -> None:
        self.admitted = 0
        self.blocked = 0
        self.shed = 0
        self.released = 0
        self.fallbacks = 0
        self.occupancy: Dict[int, int] = {}
        self.latencies: List[int] = []
        self.latency = QuantileSketch(self._latency_name)

    # -- the request path ----------------------------------------------------

    def decided(self, admitted: bool, latency_ns: int, occupancy: int) -> None:
        """One capacity decision: its outcome, latency, and occupancy."""
        if admitted:
            self.admitted += 1
        else:
            self.blocked += 1
        latencies = self.latencies
        latencies.append(latency_ns)
        if len(latencies) >= LATENCY_FOLD:
            self._fold()
        counts = self.occupancy
        counts[occupancy] = counts.get(occupancy, 0) + 1

    def shed_at(self, occupancy: int) -> None:
        """One request shed before any table work (no latency sample)."""
        self.shed += 1
        counts = self.occupancy
        counts[occupancy] = counts.get(occupancy, 0) + 1

    def _fold(self) -> None:
        self.latency.observe_counts(_Tally(self.latencies))
        self.latencies.clear()

    # -- publication ---------------------------------------------------------

    def flush(self) -> None:
        """Publish everything recorded since the last flush, then clear.

        Writes nothing while telemetry is disabled (as every
        :mod:`repro.obs.metrics` helper); the buffer is dropped either
        way.  Instruments are created only for what was observed, so
        the registry lists the same names per-request recording would.
        """
        if _spans._ENABLED:
            for name, n in (
                ("service.admitted", self.admitted),
                ("service.blocked", self.blocked),
                ("service.shed", self.shed),
                ("service.released", self.released),
                ("service.fallback_decisions", self.fallbacks),
            ):
                if n:
                    _metrics.add(name, n)
            if self.latencies:
                self._fold()
            if self.latency.count:
                _metrics.sketch(AGGREGATE_LATENCY).merge(self.latency)
                _metrics.sketch(self._latency_name).merge(self.latency)
            if self.occupancy:
                _metrics.sketch(self._occupancy_name).observe_counts(
                    self.occupancy
                )
        self._clear()
