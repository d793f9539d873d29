"""Memoized admissible-connection decision tables for online CAC.

The offline machinery (:func:`repro.atm.cac.admissible_connections`,
:func:`repro.core.effective_bandwidth.effective_bandwidth_at_cts`)
answers "how many connections fit?" with a handful of Bahadur-Rao
inversions — milliseconds each.  An online admission service answers
the same question per *request*, at workload scale: a million-request
replay must not cost a million inversions.

The resolution is the classical CAC decision table: the admissible
count depends only on ``(model, link capacity, QoS contract, policy)``,
none of which change while a connection request is in flight.  A
:class:`DecisionTableCache` computes each distinct decision exactly
once and serves every subsequent lookup O(1) from an LRU map, so the
steady-state cost of :meth:`DecisionTableCache.lookup` is a dict probe.
With ``path=`` the computed entries additionally persist as JSONL, so
a restarted service (or a fleet of replay workers) skips even the first
inversion.

Cache keys are *fingerprints*: the model contributes its class name,
first- and second-order statistics, and the ACF sampled on a fixed lag
grid (hashed); QoS and capacity floats enter via ``float.hex`` so the
key is exact, not formatted.  Two model instances with identical
statistics — e.g. ``make_z(0.975)`` built twice, or the same model
unpickled in a worker process — therefore share one table entry.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.atm.cac import admissible_connections
from repro.atm.qos import QoSRequirement
from repro.core.effective_bandwidth import effective_bandwidth_at_cts
from repro.exceptions import JournalError, ParameterError
from repro.models.base import TrafficModel
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.service.journal import atomic_write_text, decode_line, encode_line
from repro.utils.validation import check_integer

__all__ = [
    "CAC_METHODS",
    "Decision",
    "DecisionTableCache",
    "EFFECTIVE_BANDWIDTH_METHOD",
    "SERVICE_METHODS",
    "decision_key",
    "load_table",
    "model_fingerprint",
]

#: The offline policies of :mod:`repro.atm.cac`, servable per request.
CAC_METHODS: Tuple[str, ...] = (
    "peak-rate",
    "mean-rate",
    "bahadur-rao",
    "large-n",
)

#: Additive policy for heterogeneous mixes: each class is charged its
#: CTS effective bandwidth and admission checks ``sum e_i <= C``.
EFFECTIVE_BANDWIDTH_METHOD = "effective-bandwidth"

#: Every policy the admission engine can serve.
SERVICE_METHODS: Tuple[str, ...] = CAC_METHODS + (EFFECTIVE_BANDWIDTH_METHOD,)

#: Lags at which the ACF is sampled into the model fingerprint.  A
#: Fibonacci-spaced grid distinguishes both short-term (DAR weights)
#: and long-term (Hurst) correlation structure without evaluating a
#: dense ACF; 987 lags cover every CTS the paper's operating points
#: produce.
_FINGERPRINT_LAGS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987)

_FINGERPRINT_ATTR = "_repro_service_fingerprint"


def model_fingerprint(model: TrafficModel) -> str:
    """A stable identity for ``model``'s admission-relevant statistics.

    Equal-statistics instances (rebuilt factories, unpickled copies in
    worker processes) produce equal fingerprints; the result is
    memoized on the instance because the ACF evaluation is the only
    non-trivial cost and admission lookups are per-request.
    """
    cached = getattr(model, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    acf = np.asarray(
        model.autocorrelation(np.asarray(_FINGERPRINT_LAGS)), dtype=float
    )
    payload = json.dumps(
        {
            "class": type(model).__name__,
            "mean": float(model.mean).hex(),
            "variance": float(model.variance).hex(),
            "hurst": float(model.hurst).hex(),
            "frame_duration": float(model.frame_duration).hex(),
            # Rounded so fingerprints survive harmless float jitter in
            # ACF evaluation paths while still separating real models.
            "acf": [round(float(r), 12) for r in acf],
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    fingerprint = f"{type(model).__name__}:{digest}"
    try:
        setattr(model, _FINGERPRINT_ATTR, fingerprint)
    except AttributeError:
        pass  # frozen/slotted models simply recompute
    return fingerprint


def decision_key(
    model: TrafficModel,
    link_capacity: float,
    qos: QoSRequirement,
    method: str,
) -> str:
    """The exact cache key of one admission decision."""
    return "|".join(
        (
            method,
            model_fingerprint(model),
            float(link_capacity).hex(),
            float(qos.max_delay_seconds).hex(),
            float(qos.max_clr).hex(),
        )
    )


@dataclass(frozen=True)
class Decision:
    """One cached admission decision.

    ``admissible`` is the maximum connection count for the keyed
    (model, capacity, QoS, method); under the effective-bandwidth
    policy it is the homogeneous count ``floor(C / e)`` and
    ``effective_bandwidth`` carries the per-connection charge ``e``
    that heterogeneous admission sums.
    """

    key: str
    method: str
    admissible: int
    link_capacity: float
    effective_bandwidth: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "method": self.method,
            "admissible": self.admissible,
            "link_capacity": self.link_capacity,
            "effective_bandwidth": self.effective_bandwidth,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Decision":
        return cls(
            key=str(data["key"]),
            method=str(data["method"]),
            admissible=int(data["admissible"]),
            link_capacity=float(data["link_capacity"]),
            effective_bandwidth=(
                None
                if data.get("effective_bandwidth") is None
                else float(data["effective_bandwidth"])
            ),
        )


def _compute_decision(
    key: str,
    model: TrafficModel,
    link_capacity: float,
    qos: QoSRequirement,
    method: str,
) -> Decision:
    """The expensive path: one offline inversion per distinct key."""
    with _spans.span("service.table_compute", method=method):
        if method == EFFECTIVE_BANDWIDTH_METHOD:
            buffer_cells = qos.buffer_cells(
                link_capacity, model.frame_duration
            )
            if buffer_cells <= 0:
                raise ParameterError(
                    "effective-bandwidth policy needs a positive buffer; "
                    f"QoS delay {qos.max_delay_seconds} at capacity "
                    f"{link_capacity} yields {buffer_cells} cells"
                )
            # Classical space-parameter choice: overflow <= e^{-theta B}
            # at the target CLR.
            theta = -math.log(qos.max_clr) / buffer_cells
            bandwidth = effective_bandwidth_at_cts(
                model, theta, link_capacity, buffer_cells
            )
            return Decision(
                key=key,
                method=method,
                admissible=int(link_capacity // bandwidth),
                link_capacity=float(link_capacity),
                effective_bandwidth=float(bandwidth),
            )
        count = admissible_connections(model, link_capacity, qos, method)
        return Decision(
            key=key,
            method=method,
            admissible=int(count),
            link_capacity=float(link_capacity),
        )


class DecisionTableCache:
    """LRU-memoized admission decisions with optional JSONL persistence.

    Parameters
    ----------
    max_entries:
        LRU capacity.  Decision tables are tiny (one entry per distinct
        (model, capacity, QoS, policy)); the bound exists so a
        pathological caller cycling through unbounded QoS grids cannot
        grow the service without limit.
    path:
        Optional JSONL file.  Existing entries are loaded on
        construction; newly computed entries are written back when
        ``persist`` is true, so the table warms across runs.  Writes
        are crash-safe (write-temp + fsync + rename) and every line
        carries a CRC32, so a mid-write crash can never leave a file
        that fails to load: damaged or torn lines are *dropped* —
        counted on :attr:`recovered_lines` and the
        ``service.table_lines_dropped`` counter — and the dropped
        decisions are simply recomputed on their next lookup.  Plain
        (pre-CRC) lines from older files still load.
    persist:
        Whether computed entries are written back to ``path``.  Replay
        workers load shared tables read-only (``persist=False``) so a
        fleet never races on writes.
    """

    def __init__(
        self,
        max_entries: int = 1024,
        *,
        path=None,
        persist: bool = True,
    ):
        self.max_entries = check_integer(
            max_entries, "max_entries", minimum=1
        )
        self.path = None if path is None else Path(path)
        self.persist = bool(persist)
        self._entries: "OrderedDict[str, Decision]" = OrderedDict()
        #: Every decision destined for the file: loaded + computed.
        #: Not subject to LRU eviction (the file is the durable store;
        #: the LRU bound protects memory on the hot path only).
        self._persisted: "OrderedDict[str, Decision]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        #: ``hits`` as of the last :meth:`publish_hits`.
        self._published_hits = 0
        self.misses = 0
        self.loaded = 0
        #: Damaged lines dropped (not fatal) during the last load.
        self.recovered_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    # -- persistence ---------------------------------------------------------

    @staticmethod
    def _parse_line(line: str) -> Decision:
        """One persisted decision: CRC-wrapped, or a legacy plain dict."""
        try:
            return Decision.from_dict(decode_line(line))
        except JournalError:
            return Decision.from_dict(json.loads(line))

    def _load(self) -> None:
        self.load_text(self.path.read_text(encoding="utf-8"))

    def load_text(self, text: str) -> None:
        """Load persisted entries from ``text`` (a JSONL table image).

        Exactly the parsing a ``path=`` construction performs — last
        write wins, damaged lines dropped and counted — so a shard
        handed the table file's text in its payload ends up in the
        same state as one that read the file itself.
        """
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                decision = self._parse_line(line)
            except (KeyError, TypeError, ValueError):
                # A torn or bit-flipped line must not take the service
                # down: drop it loudly and recompute on next lookup.
                self.recovered_lines += 1
                if _spans._ENABLED:
                    _metrics.add("service.table_lines_dropped")
                continue
            # Last write wins, matching historical append persistence.
            self._entries[decision.key] = decision
            self._entries.move_to_end(decision.key)
            self._persisted[decision.key] = decision
            self.loaded += 1
        self._evict()

    def _persist(self, decision: Decision) -> None:
        """Durably add ``decision`` via whole-file atomic replace.

        Rewriting the file sounds expensive but isn't: tables hold one
        entry per distinct (model, capacity, QoS, policy) — a handful —
        and only cache *misses* reach here.  In exchange a crash at any
        instant leaves a complete, loadable file.
        """
        with self._lock:
            self._persisted[decision.key] = decision
            text = "".join(
                encode_line(entry.to_dict()) + "\n"
                for entry in self._persisted.values()
            )
        atomic_write_text(self.path, text)

    # -- the hot path --------------------------------------------------------

    def lookup(
        self,
        model: TrafficModel,
        link_capacity: float,
        qos: QoSRequirement,
        method: str,
        *,
        key: Optional[str] = None,
    ) -> Decision:
        """The admission decision for this operating point, cached.

        The first lookup of a distinct (model, capacity, QoS, method)
        pays the offline inversion; every later one is a dict probe.
        Callers that serve many requests against a fixed operating
        point (the admission engine) pass the precomputed ``key`` to
        skip re-serializing the fingerprint and QoS floats per
        request; hit/miss accounting is identical either way.  Hits
        reach telemetry in bulk through :meth:`publish_hits`.
        """
        if method not in SERVICE_METHODS:
            raise ParameterError(
                f"unknown admission policy {method!r}; choose from "
                f"{', '.join(SERVICE_METHODS)}"
            )
        if key is None:
            key = decision_key(model, link_capacity, qos, method)
        with self._lock:
            decision = self._entries.get(key)
            if decision is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return decision
        decision = _compute_decision(key, model, link_capacity, qos, method)
        with self._lock:
            self.misses += 1
            self._entries[key] = decision
            self._entries.move_to_end(key)
            self._evict()
        if _spans._ENABLED:
            _metrics.add("service.table_misses")
        if self.persist and self.path is not None:
            self._persist(decision)
        return decision

    def count_hits(self, key: str, n: int) -> None:
        """Count ``n`` lookups of the cached ``key``, as ``n`` hits would.

        A batched run of requests decided against one cached decision
        (:meth:`~repro.service.engine.AdmissionEngine.commit_run`)
        accounts for its per-request lookups here in one call: the
        same hit count and LRU position as ``n`` :meth:`lookup` calls.
        """
        with self._lock:
            self._entries.move_to_end(key)
            self.hits += n

    def publish_hits(self) -> None:
        """Add the hits since the last publish to ``service.table_hits``.

        The hot path only counts :attr:`hits`; telemetry takes them
        from there once per flush instead of one registry add per
        lookup.  Nothing is published while telemetry is disabled, but
        the watermark advances either way.
        """
        with self._lock:
            fresh = self.hits - self._published_hits
            self._published_hits = self.hits
        if fresh:
            _metrics.add("service.table_hits", fresh)

    def peek(
        self,
        model: TrafficModel,
        link_capacity: float,
        qos: QoSRequirement,
        method: str,
        *,
        key: Optional[str] = None,
    ) -> Optional[Decision]:
        """A cached decision without touching hit/miss accounting.

        Journal recovery re-reads boundaries that the crashed attempt
        already looked up; counting those reads again would break the
        byte-identity of the recovered hit/miss totals.
        """
        if key is None:
            key = decision_key(model, link_capacity, qos, method)
        with self._lock:
            return self._entries.get(key)

    def dump_text(self) -> str:
        """The live entries as a JSONL table image (CRC-wrapped lines).

        Exactly the format :meth:`load_text` parses and ``path=``
        persistence writes, so a cache warmed in one process travels
        as this text in shard payloads and is reloaded by any number
        of read-only consumers (:func:`load_table`) into the same
        entry state — the immutable snapshot the sharded admission
        frontend and every replay and drive shard load.
        """
        with self._lock:
            return "".join(
                encode_line(entry.to_dict()) + "\n"
                for entry in self._entries.values()
            )

    def _evict(self) -> None:
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Hit/miss/size accounting for reports and replay summaries."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
            "loaded": self.loaded,
        }

    # -- exact state transport (journal snapshots) ---------------------------

    def snapshot_state(self) -> dict:
        """Counters and entries, exactly, for a journal snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "decisions": [d.to_dict() for d in self._entries.values()],
            }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`snapshot_state` output (LRU order included).

        Restores in-memory state only — persistence is untouched, so a
        read-only worker recovering from a journal never writes.  The
        restored hits count as published: the attempt that made them
        owned their telemetry.
        """
        with self._lock:
            self.hits = int(state["hits"])
            self._published_hits = self.hits
            self.misses = int(state["misses"])
            self._entries = OrderedDict(
                (d["key"], Decision.from_dict(d))
                for d in state["decisions"]
            )

    def __repr__(self) -> str:
        return (
            f"DecisionTableCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def load_table(text: Optional[str]) -> DecisionTableCache:
    """A shard's private read-only cache, loaded from a JSONL image.

    ``text`` is what :meth:`DecisionTableCache.dump_text` emits or a
    table file holds, shipped in the shard's payload (None: an empty
    cache).
    """
    tables = DecisionTableCache(persist=False)
    if text is not None:
        tables.load_text(text)
    return tables
