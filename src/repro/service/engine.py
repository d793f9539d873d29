"""The event-driven admission-control engine.

An :class:`AdmissionEngine` is the operational form of the paper's
motivating application: it holds the admitted-connection mix of one
link — N sources on a link of capacity C under a QoS target — and
answers ``admit()`` / ``release()`` queries online, delegating every
capacity question to a
:class:`~repro.service.tables.DecisionTableCache` so the per-request
cost is a cache probe, not a Bahadur-Rao inversion.  A service with
many links builds one engine per link.

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
admit is timed, but the request path only updates the engine's
:class:`~repro.service.telemetry.LinkRecorder` (plain counters, an
occupancy map, a bounded latency buffer); :meth:`AdmissionEngine
.flush_telemetry` publishes it to the registry in bulk, with the
same resulting instruments and values.  Disabled, the request path
pays one flag read per admit and per release.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

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

__all__ = ["AdmissionDecision", "AdmissionEngine"]

#: Blocked/admitted reasons reported on every decision.
REASON_ADMITTED = "admitted"
REASON_CAPACITY = "capacity"
#: The request was load-shed before any capacity question was asked.
REASON_SHED = "shed"
#: The decision counts an engine keeps (and its snapshot carries).
_COUNTS = (
    "admitted", "blocked", "shed", "fallbacks", "released", "peak_occupancy"
)


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


class AdmissionEngine:
    """One link's admission control, served from cached decision tables.

    The engine *is* the link: it owns the link's admitted mix, the
    running accumulators, the overload state, the decision counts and
    the telemetry recorder.  A service with many links builds one
    engine per link (engines may share one table cache).

    Parameters
    ----------
    link_id:
        The link's name, reported on every decision and in telemetry.
    capacity:
        Link capacity in cells/frame.
    qos:
        The link's QoS contract (default :class:`QoSRequirement`).
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

    The decision counts (:attr:`admitted`, :attr:`blocked`,
    :attr:`shed`, :attr:`fallbacks`, :attr:`released`) and
    :attr:`peak_occupancy` count every decision, telemetry on or off.
    A fallback decision is also counted as admitted or blocked.
    """

    def __init__(
        self,
        link_id: str,
        capacity: float,
        qos: Optional[QoSRequirement] = None,
        *,
        policy: str = "bahadur-rao",
        tables: Optional[DecisionTableCache] = None,
        overload: Optional[OverloadPolicy] = None,
    ):
        if policy not in SERVICE_METHODS:
            raise ParameterError(
                f"unknown admission policy {policy!r}; choose from "
                f"{', '.join(SERVICE_METHODS)}"
            )
        check_positive(capacity, "capacity")
        self.link_id = link_id
        self.capacity = float(capacity)
        self.qos = qos if qos is not None else QoSRequirement()
        self.policy = policy
        self.tables = tables if tables is not None else DecisionTableCache()
        self.overload = (
            OverloadState(overload) if overload is not None else None
        )
        self.connections: Dict[str, _Connection] = {}
        self.class_counts: Dict[str, int] = {}
        #: Sum of admitted effective bandwidths (effective-bandwidth policy).
        self.admitted_bandwidth = 0.0
        #: Sum of admitted mean rates (cells/frame) — the carried load.
        self.admitted_mean_load = 0.0
        self.admitted = 0
        self.blocked = 0
        self.shed = 0
        self.fallbacks = 0
        self.released = 0
        self.peak_occupancy = 0
        #: Unflushed telemetry (see :mod:`repro.service.telemetry`).
        self.recorder = LinkRecorder(link_id)
        # Admission hot-path caches.  Serializing a decision key (model
        # fingerprint + QoS/capacity float hexes) per request dominates
        # the admit cost once the table itself is warm, and the key for
        # a (model, method) never changes while the engine exists —
        # so it is built once, not once per request.  Models are kept
        # strongly referenced so the ``id()`` keys stay valid.
        self._decision_keys: Dict[tuple, str] = {}
        self._fingerprints: Dict[int, str] = {}
        # ``float(model.mean)`` is not free either (a superposed model
        # re-sums its components), and it is fixed per model.
        self._means: Dict[int, float] = {}
        self._key_refs: Dict[int, TrafficModel] = {}

    @property
    def occupancy(self) -> int:
        """Number of currently admitted connections."""
        return len(self.connections)

    @property
    def utilization(self) -> float:
        """Carried mean load as a fraction of the link capacity."""
        return self.admitted_mean_load / self.capacity

    # -- hot-path caches -----------------------------------------------------

    def _decision_key(self, model: TrafficModel, method: str) -> str:
        cache_key = (id(model), method)
        key = self._decision_keys.get(cache_key)
        if key is None:
            key = decision_key(model, self.capacity, self.qos, method)
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
        swaps the admitted mix and table entries wholesale, and the
        model objects a recovered attempt admits against are *new*
        Python objects — if a stale cache entry survived recovery and
        a new model landed on a recycled ``id()``, the engine would
        serve decisions against the dead model's fingerprint.
        Recovery (:meth:`restore_state`) therefore invalidates the
        caches; the next admit per (model, method) re-derives its key
        once and re-warms.
        """
        self._decision_keys.clear()
        self._fingerprints.clear()
        self._means.clear()
        self._key_refs.clear()

    # -- the service surface -------------------------------------------------

    def admit(
        self,
        model: TrafficModel,
        connection_id: str,
        *,
        now: Optional[float] = None,
        force_fallback: bool = False,
    ) -> AdmissionDecision:
        """Decide one connection request against the link's free capacity.

        ``now`` is the request's arrival time on the workload clock;
        with an overload policy configured it drives the bounded
        decision queue (omitted, nothing is ever shed) and must be
        finite (:class:`~repro.exceptions.ParameterError` otherwise).
        ``force_fallback`` serves the decision from the fallback
        policy unconditionally — journal recovery uses it to re-apply
        a decision that was originally made while the breaker was
        open, without re-raising the fault that opened it.
        """
        enabled = _spans._ENABLED
        started = time.perf_counter_ns() if enabled else 0
        connections = self.connections
        if connection_id in connections:
            raise ParameterError(
                f"connection {connection_id!r} already admitted on "
                f"link {self.link_id!r}"
            )
        overload = self.overload
        if overload is not None and now is not None:
            now = float(now)
            if not math.isfinite(now):
                # A NaN or infinite clock would stick in the queue's
                # completion times and shed every later request.
                raise ParameterError(
                    f"admit time must be finite, got {now!r}"
                )
            if not overload.queue.offer(now):
                # Shed before any table work: overload protection must
                # not cost a lookup per rejected request.
                self.shed += 1
                if enabled:
                    self.recorder.shed_at(len(connections))
                return AdmissionDecision(
                    admitted=False,
                    link_id=self.link_id,
                    connection_id=connection_id,
                    policy=self.policy,
                    reason=REASON_SHED,
                    admissible=-1,
                    occupancy=len(connections),
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
                            self.capacity,
                            self.qos,
                            self.policy,
                            key=self._decision_key(model, self.policy),
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
                    self.capacity,
                    self.qos,
                    self.policy,
                    key=self._decision_key(model, self.policy),
                )
        if fallback:
            fallback_method = (
                overload.policy.fallback_method
                if overload is not None
                else "peak-rate"
            )
            decision = self.tables.lookup(
                model,
                self.capacity,
                self.qos,
                fallback_method,
                key=self._decision_key(model, fallback_method),
            )
            self.fallbacks += 1
            if enabled:
                self.recorder.fallbacks += 1

        fingerprint = self._fingerprint_for(model)
        bandwidth = decision.effective_bandwidth
        class_counts = self.class_counts
        if fallback:
            # The fallback boundary is a peak-allocation count: total
            # occupancy below it is safe for *any* admitted mix, so no
            # homogeneity guard applies here.
            admitted = len(connections) < decision.admissible
            if admitted and self.policy == EFFECTIVE_BANDWIDTH_METHOD:
                # Keep effective-bandwidth bookkeeping conservative:
                # charge the peak allocation, symmetric on release.
                bandwidth = (
                    self._mean_for(model) + float(model.std) * PEAK_SIGMA
                )
        elif self.policy == EFFECTIVE_BANDWIDTH_METHOD:
            admitted = self.admitted_bandwidth + bandwidth <= self.capacity
        else:
            if class_counts and fingerprint not in class_counts:
                raise self._mix_error()
            admitted = class_counts.get(fingerprint, 0) < decision.admissible
        if admitted:
            mean = self._mean_for(model)
            connections[connection_id] = _Connection(
                fingerprint=fingerprint,
                mean=mean,
                effective_bandwidth=bandwidth,
            )
            class_counts[fingerprint] = class_counts.get(fingerprint, 0) + 1
            if bandwidth is not None:
                self.admitted_bandwidth += bandwidth
            self.admitted_mean_load += mean
            self.admitted += 1
            if len(connections) > self.peak_occupancy:
                self.peak_occupancy = len(connections)
        else:
            self.blocked += 1
        if enabled:
            # Occupancy after the decision is deterministic for a
            # given seed, so its sketch is part of the serial-vs-jobs
            # bit-identity contract (latency sketches are not).
            self.recorder.decided(
                admitted, time.perf_counter_ns() - started, len(connections)
            )
        return AdmissionDecision(
            admitted=admitted,
            link_id=self.link_id,
            connection_id=connection_id,
            policy=self.policy,
            reason=REASON_ADMITTED if admitted else REASON_CAPACITY,
            admissible=decision.admissible,
            occupancy=len(connections),
            effective_bandwidth=bandwidth,
            fallback=fallback,
        )

    def release(self, connection_id: str) -> None:
        """Tear down an admitted connection, freeing its allocation."""
        try:
            connection = self.connections.pop(connection_id)
        except KeyError:
            raise ParameterError(
                f"connection {connection_id!r} is not admitted on "
                f"link {self.link_id!r}"
            ) from None
        class_counts = self.class_counts
        remaining = class_counts[connection.fingerprint] - 1
        if remaining:
            class_counts[connection.fingerprint] = remaining
        else:
            del class_counts[connection.fingerprint]
        if connection.effective_bandwidth is not None:
            self.admitted_bandwidth -= connection.effective_bandwidth
        self.admitted_mean_load -= connection.mean
        self.released += 1
        if _spans._ENABLED:
            self.recorder.released += 1

    def commit_run(
        self,
        model: TrafficModel,
        admits: np.ndarray,
        released: Sequence[str],
        survivors: Sequence[str],
    ) -> np.ndarray:
        """Apply a run of admits and releases at once; the load before each.

        The batched form of the :meth:`admit` and :meth:`release` calls
        a count-policy link makes below its boundary, for a caller that
        has shown every admit of the run is admitted.  ``admits`` flags
        each event in order (True: an admit of ``model``, False: a
        release); ``released`` names the connections up before the run
        that it releases, and ``survivors`` the run's own admits still
        up after it, in admission order (it releases the others
        itself).  The counts, peak, mix, table hits and carried mean
        load end exactly as the scalar calls leave them, the load as
        the same sequential float sum, and the carried load before each
        event is returned.  Nothing is recorded for telemetry: callers
        keep the scalar calls while it is on.
        """
        if self.policy == EFFECTIVE_BANDWIDTH_METHOD:
            raise ParameterError(
                f"commit_run serves count policies, not {self.policy!r}"
            )
        fingerprint = self._fingerprint_for(model)
        class_counts = self.class_counts
        if class_counts and fingerprint not in class_counts:
            raise self._mix_error()
        mean = self._mean_for(model)
        # np.cumsum adds in order, as the scalar += / -= do.
        loads = np.cumsum(
            np.concatenate(
                ([self.admitted_mean_load], np.where(admits, mean, -mean))
            )
        )
        connections = self.connections
        occupancy = len(connections) + np.cumsum(np.where(admits, 1, -1))
        n_admits = int(np.count_nonzero(admits))
        if n_admits:
            self.peak_occupancy = max(
                self.peak_occupancy, int(occupancy[admits].max())
            )
        for connection_id in released:
            try:
                del connections[connection_id]
            except KeyError:
                raise ParameterError(
                    f"connection {connection_id!r} is not admitted on "
                    f"link {self.link_id!r}"
                ) from None
        up = _Connection(
            fingerprint=fingerprint, mean=mean, effective_bandwidth=None
        )
        for connection_id in survivors:
            connections[connection_id] = up
        if connections:
            class_counts[fingerprint] = len(connections)
        else:
            class_counts.pop(fingerprint, None)
        self.admitted_mean_load = float(loads[-1])
        self.admitted += n_admits
        self.released += len(admits) - n_admits
        self.tables.count_hits(
            self._decision_key(model, self.policy), n_admits
        )
        return loads[:-1]

    def _mix_error(self) -> ParameterError:
        """A count policy asked to admit a second class."""
        return ParameterError(
            f"link {self.link_id!r} carries class "
            f"{next(iter(self.class_counts))} but policy "
            f"{self.policy!r} is homogeneous-only; use the "
            f"{EFFECTIVE_BANDWIDTH_METHOD!r} policy for mixes"
        )

    def flush_telemetry(self) -> None:
        """Publish the link's recorded telemetry.

        Then the table cache's hits since its last publish (a cache
        shared by several engines publishes them once).  See
        :mod:`repro.service.telemetry` for what is recorded and why
        the registry ends in the per-request state.
        """
        self.recorder.flush()
        self.tables.publish_hits()

    # -- exact state transport (journal snapshots) ---------------------------

    def export_state(self) -> dict:
        """Everything the engine owns, as exact JSON-serializable data.

        The admitted mix, the decision counts and the overload state.
        Floats travel as ``float.hex()`` and the running accumulators
        are exported *as stored* — never recomputed by summation on
        restore, because float addition order matters and recovery
        must be byte-identical to a run that never crashed.
        """
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
                for connection_id, connection in self.connections.items()
            ],
            "admitted_bandwidth": self.admitted_bandwidth.hex(),
            "admitted_mean_load": self.admitted_mean_load.hex(),
            "counts": {name: getattr(self, name) for name in _COUNTS},
            "overload": (
                self.overload.state_dict()
                if self.overload is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`export_state` output exactly.

        Also invalidates the decision-key/fingerprint caches: the
        restored world may pair recycled ``id()`` values with
        different models, and a recovered shard must never serve a
        decision against a stale fingerprint.
        """
        self.invalidate_decision_caches()
        self.connections.clear()
        self.class_counts.clear()
        for connection_id, fingerprint, mean_hex, bandwidth_hex in state[
            "connections"
        ]:
            self.connections[connection_id] = _Connection(
                fingerprint=fingerprint,
                mean=float.fromhex(mean_hex),
                effective_bandwidth=(
                    None
                    if bandwidth_hex is None
                    else float.fromhex(bandwidth_hex)
                ),
            )
            self.class_counts[fingerprint] = (
                self.class_counts.get(fingerprint, 0) + 1
            )
        self.admitted_bandwidth = float.fromhex(state["admitted_bandwidth"])
        self.admitted_mean_load = float.fromhex(state["admitted_mean_load"])
        for name in _COUNTS:
            setattr(self, name, int(state["counts"][name]))
        if self.overload is not None and state["overload"] is not None:
            self.overload.restore_state(state["overload"])

    def __repr__(self) -> str:
        return (
            f"AdmissionEngine(link_id={self.link_id!r}, "
            f"capacity={self.capacity!r}, policy={self.policy!r}, "
            f"tables={self.tables!r})"
        )
