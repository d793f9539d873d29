"""The event-driven admission-control engine.

An :class:`AdmissionEngine` is the operational form of the paper's
motivating application: it holds the admitted-connection mix of one or
more links and answers ``admit()`` / ``release()`` queries online,
delegating every capacity question to a
:class:`~repro.service.tables.DecisionTableCache` so the per-request
cost is a cache probe, not a Bahadur-Rao inversion.

Two admission disciplines:

* **count policies** (``peak-rate``, ``mean-rate``, ``bahadur-rao``,
  ``large-n``) — the link carries one homogeneous class and a request
  is admitted while the occupancy is below the offline admissible N
  for that (model, capacity, QoS, policy).  Mixing classes under a
  count policy is a configuration error and raises
  :class:`~repro.exceptions.ParameterError`.
* **effective-bandwidth** — each class is charged its CTS effective
  bandwidth ``e_i`` (the paper's resolution of the "infinite effective
  bandwidth of LRD sources" myth) and a request is admitted while
  ``sum of admitted e_i + e_new <= C``.  This is the policy that
  serves heterogeneous mixes.

Telemetry (when :mod:`repro.obs` is enabled): ``service.admitted`` /
``service.blocked`` / ``service.shed`` / ``service.released`` /
``service.fallback_decisions`` counters, a
``service.admit_latency_ns`` quantile sketch (aggregate and per
link), a per-link ``service.occupancy.<link>`` sketch, plus the table
cache's ``service.table_hits`` / ``service.table_misses``.  Every
admit is timed, but the request path only updates the link's
:class:`~repro.service.telemetry.LinkRecorder` (plain counters, an
occupancy map, a bounded latency buffer); :meth:`AdmissionEngine
.flush_telemetry` publishes it to the registry in bulk, with the
same resulting instruments and values.  Disabled, the request path
pays one flag read per admit and per release.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.atm.cac import PEAK_SIGMA
from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError, ReproError
from repro.models.base import TrafficModel
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.service.overload import OverloadPolicy, OverloadState
from repro.service.telemetry import LinkRecorder
from repro.service.tables import (
    EFFECTIVE_BANDWIDTH_METHOD,
    SERVICE_METHODS,
    DecisionTableCache,
    decision_key,
    model_fingerprint,
)
from repro.utils.validation import check_positive

__all__ = ["AdmissionDecision", "AdmissionEngine", "LinkState"]

#: Blocked/admitted reasons reported on every decision.
REASON_ADMITTED = "admitted"
REASON_CAPACITY = "capacity"
#: The request was load-shed before any capacity question was asked.
REASON_SHED = "shed"


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission query.

    ``occupancy`` is the connection count on the link *after* the
    decision took effect; ``admissible`` is the table boundary the
    decision was checked against (the homogeneous maximum N).
    """

    admitted: bool
    link_id: str
    connection_id: str
    policy: str
    reason: str
    admissible: int
    occupancy: int
    effective_bandwidth: Optional[float] = None
    #: True when the breaker served this decision from the fallback
    #: policy instead of the configured primary.
    fallback: bool = False


@dataclass(frozen=True)
class _Connection:
    """Book-keeping for one admitted connection."""

    fingerprint: str
    mean: float
    effective_bandwidth: Optional[float]


@dataclass
class LinkState:
    """Mutable admitted-mix state of one link."""

    link_id: str
    capacity: float
    qos: QoSRequirement
    connections: Dict[str, _Connection] = field(default_factory=dict)
    class_counts: Dict[str, int] = field(default_factory=dict)
    #: Sum of admitted effective bandwidths (effective-bandwidth policy).
    admitted_bandwidth: float = 0.0
    #: Sum of admitted mean rates (cells/frame) — the carried load.
    admitted_mean_load: float = 0.0
    #: Unflushed telemetry of this link (see :mod:`repro.service.telemetry`).
    recorder: LinkRecorder = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.recorder = LinkRecorder(self.link_id)

    @property
    def occupancy(self) -> int:
        """Number of currently admitted connections."""
        return len(self.connections)


class AdmissionEngine:
    """Per-link admission control served from cached decision tables.

    Parameters
    ----------
    policy:
        One of :data:`~repro.service.tables.SERVICE_METHODS`.
    tables:
        The decision-table cache to consult; a fresh private cache by
        default.  Sharing one cache across engines shares the computed
        tables (and their hit/miss accounting).
    overload:
        Optional :class:`~repro.service.overload.OverloadPolicy`.
        When set (and ``admit`` is given the arrival time) requests
        past the bounded decision queue are shed, and primary-lookup
        failures trip a circuit breaker that serves the conservative
        fallback policy instead of taking the shard down.  Without it
        the engine keeps its legacy fail-fast semantics.
    """

    def __init__(
        self,
        policy: str = "bahadur-rao",
        *,
        tables: Optional[DecisionTableCache] = None,
        overload: Optional[OverloadPolicy] = None,
    ):
        if policy not in SERVICE_METHODS:
            raise ParameterError(
                f"unknown admission policy {policy!r}; choose from "
                f"{', '.join(SERVICE_METHODS)}"
            )
        self.policy = policy
        self.tables = tables if tables is not None else DecisionTableCache()
        self.overload = (
            OverloadState(overload) if overload is not None else None
        )
        self._links: Dict[str, LinkState] = {}
        # Admission hot-path caches.  Serializing a decision key (model
        # fingerprint + QoS/capacity float hexes) per request dominates
        # the admit cost once the table itself is warm, and the key for
        # a (model, link, method) never changes while the link exists —
        # so it is built once per link, not once per request.  Models
        # are kept strongly referenced so the ``id()`` keys stay valid.
        self._decision_keys: Dict[tuple, str] = {}
        self._fingerprints: Dict[int, str] = {}
        # ``float(model.mean)`` is not free either (a superposed model
        # re-sums its components), and it is fixed per model.
        self._means: Dict[int, float] = {}
        self._key_refs: Dict[int, TrafficModel] = {}

    # -- topology ------------------------------------------------------------

    def add_link(
        self,
        link_id: str,
        capacity: float,
        qos: Optional[QoSRequirement] = None,
    ) -> LinkState:
        """Register a link (capacity in cells/frame) and return its state."""
        check_positive(capacity, "capacity")
        if link_id in self._links:
            raise ParameterError(f"link {link_id!r} already registered")
        state = LinkState(
            link_id=link_id,
            capacity=float(capacity),
            qos=qos if qos is not None else QoSRequirement(),
        )
        self._links[link_id] = state
        return state

    def link(self, link_id: str) -> LinkState:
        try:
            return self._links[link_id]
        except KeyError:
            raise ParameterError(
                f"unknown link {link_id!r}; registered: "
                f"{sorted(self._links)}"
            ) from None

    @property
    def links(self) -> Dict[str, LinkState]:
        """Read-only view of registered links (do not mutate)."""
        return dict(self._links)

    # -- hot-path caches -----------------------------------------------------

    def _decision_key(
        self, model: TrafficModel, link: LinkState, method: str
    ) -> str:
        cache_key = (id(model), link.link_id, method)
        key = self._decision_keys.get(cache_key)
        if key is None:
            key = decision_key(model, link.capacity, link.qos, method)
            self._decision_keys[cache_key] = key
            self._key_refs[id(model)] = model
        return key

    def _fingerprint_for(self, model: TrafficModel) -> str:
        fingerprint = self._fingerprints.get(id(model))
        if fingerprint is None:
            fingerprint = model_fingerprint(model)
            self._fingerprints[id(model)] = fingerprint
            self._key_refs[id(model)] = model
        return fingerprint

    def _mean_for(self, model: TrafficModel) -> float:
        mean = self._means.get(id(model))
        if mean is None:
            mean = float(model.mean)
            self._means[id(model)] = mean
            self._key_refs[id(model)] = model
        return mean

    def invalidate_decision_caches(self) -> None:
        """Drop every memoized decision key, model fingerprint and mean.

        The hot-path caches are keyed by ``id(model)`` and pinned by
        strong references, which is sound only while the engine's
        world stays put.  Journal recovery breaks that premise: it
        swaps link state and table entries wholesale, and the model
        objects a recovered attempt admits against are *new* Python
        objects — if a stale cache entry survived recovery and a new
        model landed on a recycled ``id()``, the engine would serve
        decisions against the dead model's fingerprint.  Recovery
        (:meth:`restore_link_state`) therefore invalidates the caches;
        the next admit per (model, link, method) re-derives its key
        once and re-warms.
        """
        self._decision_keys.clear()
        self._fingerprints.clear()
        self._means.clear()
        self._key_refs.clear()

    # -- the service surface -------------------------------------------------

    def admit(
        self,
        link_id: str,
        model: TrafficModel,
        connection_id: str,
        *,
        now: Optional[float] = None,
        force_fallback: bool = False,
    ) -> AdmissionDecision:
        """Decide one connection request against the link's free capacity.

        ``now`` is the request's arrival time on the workload clock;
        with an overload policy configured it drives the bounded
        decision queue (omitted, nothing is ever shed).
        ``force_fallback`` serves the decision from the fallback
        policy unconditionally — journal recovery uses it to re-apply
        a decision that was originally made while the breaker was
        open, without re-raising the fault that opened it.
        """
        enabled = _spans._ENABLED
        started = time.perf_counter_ns() if enabled else 0
        link = self.link(link_id)
        if connection_id in link.connections:
            raise ParameterError(
                f"connection {connection_id!r} already admitted on "
                f"link {link_id!r}"
            )
        overload = self.overload
        if (
            overload is not None
            and now is not None
            and not overload.queue.offer(float(now))
        ):
            # Shed before any table work: overload protection must not
            # cost a lookup per rejected request.
            if enabled:
                link.recorder.shed_at(link.occupancy)
            return AdmissionDecision(
                admitted=False,
                link_id=link_id,
                connection_id=connection_id,
                policy=self.policy,
                reason=REASON_SHED,
                admissible=-1,
                occupancy=link.occupancy,
                effective_bandwidth=None,
            )

        decision = None
        fallback = bool(force_fallback)
        if not fallback:
            if overload is not None:
                if overload.breaker.allow_primary():
                    try:
                        decision = self.tables.lookup(
                            model,
                            link.capacity,
                            link.qos,
                            self.policy,
                            key=self._decision_key(model, link, self.policy),
                        )
                    except ReproError:
                        opened = overload.breaker.record_failure()
                        fallback = True
                        if enabled:
                            _metrics.add("service.table_lookup_failures")
                            if opened:
                                _metrics.add("service.breaker_opened")
                    else:
                        if overload.breaker.record_success() and enabled:
                            _metrics.add("service.breaker_recovered")
                else:
                    fallback = True
            else:
                # Legacy fail-fast path: no breaker, lookup errors
                # propagate to the caller.
                decision = self.tables.lookup(
                    model,
                    link.capacity,
                    link.qos,
                    self.policy,
                    key=self._decision_key(model, link, self.policy),
                )
        if fallback:
            fallback_method = (
                overload.policy.fallback_method
                if overload is not None
                else "peak-rate"
            )
            decision = self.tables.lookup(
                model,
                link.capacity,
                link.qos,
                fallback_method,
                key=self._decision_key(model, link, fallback_method),
            )
            if overload is not None:
                overload.fallback_total += 1
            if enabled:
                link.recorder.fallbacks += 1

        fingerprint = self._fingerprint_for(model)
        bandwidth = decision.effective_bandwidth
        if fallback:
            # The fallback boundary is a peak-allocation count: total
            # occupancy below it is safe for *any* admitted mix, so no
            # homogeneity guard applies here.
            admitted = link.occupancy < decision.admissible
            if admitted and self.policy == EFFECTIVE_BANDWIDTH_METHOD:
                # Keep effective-bandwidth bookkeeping conservative:
                # charge the peak allocation, symmetric on release.
                bandwidth = (
                    self._mean_for(model) + float(model.std) * PEAK_SIGMA
                )
        elif self.policy == EFFECTIVE_BANDWIDTH_METHOD:
            admitted = (
                link.admitted_bandwidth + bandwidth <= link.capacity
            )
        else:
            if link.class_counts and fingerprint not in link.class_counts:
                raise ParameterError(
                    f"link {link_id!r} carries class "
                    f"{next(iter(link.class_counts))} but policy "
                    f"{self.policy!r} is homogeneous-only; use the "
                    f"{EFFECTIVE_BANDWIDTH_METHOD!r} policy for mixes"
                )
            admitted = (
                link.class_counts.get(fingerprint, 0) < decision.admissible
            )
        if admitted:
            mean = self._mean_for(model)
            link.connections[connection_id] = _Connection(
                fingerprint=fingerprint,
                mean=mean,
                effective_bandwidth=bandwidth,
            )
            link.class_counts[fingerprint] = (
                link.class_counts.get(fingerprint, 0) + 1
            )
            if bandwidth is not None:
                link.admitted_bandwidth += bandwidth
            link.admitted_mean_load += mean
        if enabled:
            # Occupancy after the decision is deterministic for a
            # given seed, so its sketch is part of the serial-vs-jobs
            # bit-identity contract (latency sketches are not).
            link.recorder.decided(
                admitted, time.perf_counter_ns() - started, link.occupancy
            )
        return AdmissionDecision(
            admitted=admitted,
            link_id=link_id,
            connection_id=connection_id,
            policy=self.policy,
            reason=REASON_ADMITTED if admitted else REASON_CAPACITY,
            admissible=decision.admissible,
            occupancy=link.occupancy,
            effective_bandwidth=bandwidth,
            fallback=fallback,
        )

    def release(self, link_id: str, connection_id: str) -> None:
        """Tear down an admitted connection, freeing its allocation."""
        link = self.link(link_id)
        try:
            connection = link.connections.pop(connection_id)
        except KeyError:
            raise ParameterError(
                f"connection {connection_id!r} is not admitted on "
                f"link {link_id!r}"
            ) from None
        remaining = link.class_counts[connection.fingerprint] - 1
        if remaining:
            link.class_counts[connection.fingerprint] = remaining
        else:
            del link.class_counts[connection.fingerprint]
        if connection.effective_bandwidth is not None:
            link.admitted_bandwidth -= connection.effective_bandwidth
        link.admitted_mean_load -= connection.mean
        if _spans._ENABLED:
            link.recorder.released += 1

    def flush_telemetry(self) -> None:
        """Publish every link's recorded telemetry, in link order.

        Then the table cache's hits since its last publish (a cache
        shared by several engines publishes them once).  See
        :mod:`repro.service.telemetry` for what is recorded and why
        the registry ends in the per-request state.
        """
        for link in self._links.values():
            link.recorder.flush()
        self.tables.publish_hits()

    # -- exact state transport (journal snapshots) ---------------------------

    def export_link_state(self, link_id: str) -> dict:
        """The link's admitted mix as exact, JSON-serializable data.

        Floats travel as ``float.hex()`` and the running accumulators
        are exported *as stored* — never recomputed by summation on
        restore, because float addition order matters and recovery
        must be byte-identical to a run that never crashed.
        """
        link = self.link(link_id)
        return {
            "connections": [
                [
                    connection_id,
                    connection.fingerprint,
                    connection.mean.hex(),
                    (
                        None
                        if connection.effective_bandwidth is None
                        else connection.effective_bandwidth.hex()
                    ),
                ]
                for connection_id, connection in link.connections.items()
            ],
            "admitted_bandwidth": link.admitted_bandwidth.hex(),
            "admitted_mean_load": link.admitted_mean_load.hex(),
        }

    def restore_link_state(self, link_id: str, state: dict) -> None:
        """Restore :meth:`export_link_state` output exactly.

        Also invalidates the decision-key/fingerprint caches: the
        restored world may pair recycled ``id()`` values with
        different models, and a recovered shard must never serve a
        decision against a stale fingerprint.
        """
        self.invalidate_decision_caches()
        link = self.link(link_id)
        link.connections.clear()
        link.class_counts.clear()
        for connection_id, fingerprint, mean_hex, bandwidth_hex in state[
            "connections"
        ]:
            link.connections[connection_id] = _Connection(
                fingerprint=fingerprint,
                mean=float.fromhex(mean_hex),
                effective_bandwidth=(
                    None
                    if bandwidth_hex is None
                    else float.fromhex(bandwidth_hex)
                ),
            )
            link.class_counts[fingerprint] = (
                link.class_counts.get(fingerprint, 0) + 1
            )
        link.admitted_bandwidth = float.fromhex(state["admitted_bandwidth"])
        link.admitted_mean_load = float.fromhex(state["admitted_mean_load"])

    # -- introspection -------------------------------------------------------

    def occupancy(self, link_id: str) -> int:
        return self.link(link_id).occupancy

    def utilization(self, link_id: str) -> float:
        """Carried mean load as a fraction of the link capacity."""
        link = self.link(link_id)
        return link.admitted_mean_load / link.capacity

    def __repr__(self) -> str:
        return (
            f"AdmissionEngine(policy={self.policy!r}, "
            f"links={len(self._links)}, tables={self.tables!r})"
        )
