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
from typing import Dict, NamedTuple, Optional, Sequence

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


class AdmissionDecision(NamedTuple):
    """The outcome of one admission query.

    ``occupancy`` is the connection count on the link *after* the
    decision took effect; ``admissible`` is the table boundary the
    decision was checked against (the homogeneous maximum N).  A
    named tuple: immutable, and about as cheap to build as a tuple.
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


class _ModelMemo:
    """What admission reads of one model, derived once per engine.

    Serializing a decision key (model fingerprint + QoS/capacity float
    hexes) per request would dominate the admit cost once the table is
    warm, and ``float(model.mean)`` re-sums a superposed model's
    components; none of it changes while the engine exists.  Holding
    ``model`` pins its ``id()``, the memo's key, for the entry's life.
    ``connections`` maps each bandwidth charged for the model to the
    one immutable :class:`_Connection` every admit at that charge
    shares (``None``, a count policy's charge, is made up front).
    """

    __slots__ = (
        "model", "fingerprint", "mean", "peak_charge", "key",
        "fallback_key", "connections",
    )

    def __init__(self, model, capacity, qos, policy, fallback_method):
        self.model = model
        self.fingerprint = fingerprint = model_fingerprint(model)
        self.mean = mean = float(model.mean)
        #: An effective-bandwidth link charges a fallback admit its
        #: peak allocation, symmetric on release.
        self.peak_charge = mean + float(model.std) * PEAK_SIGMA
        self.key = decision_key(model, capacity, qos, policy)
        self.fallback_key = decision_key(
            model, capacity, qos, fallback_method
        )
        self.connections = {None: _Connection(fingerprint, mean, None)}


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
        self._fallback_method = (
            overload.fallback_method if overload is not None else "peak-rate"
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
        #: One :class:`_ModelMemo` per model admitted, by ``id(model)``.
        self._memos: Dict[int, _ModelMemo] = {}

    @property
    def occupancy(self) -> int:
        """Number of currently admitted connections."""
        return len(self.connections)

    @property
    def utilization(self) -> float:
        """Carried mean load as a fraction of the link capacity."""
        return self.admitted_mean_load / self.capacity

    # -- hot-path caches -----------------------------------------------------

    def _remember(self, model: TrafficModel) -> _ModelMemo:
        """Build and keep ``model``'s memo entry, on its first use."""
        memo = self._memos[id(model)] = _ModelMemo(
            model, self.capacity, self.qos, self.policy, self._fallback_method
        )
        return memo

    def invalidate_decision_caches(self) -> None:
        """Drop every model memo (decision keys, fingerprint, mean).

        The memo is keyed by ``id(model)`` and pins each model, which
        is sound only while the engine's world stays put.  Journal
        recovery breaks that premise: it swaps the admitted mix and
        table entries wholesale, and the model objects a recovered
        attempt admits against are *new* Python objects — if a stale
        memo entry survived recovery and a new model landed on a
        recycled ``id()``, the engine would serve decisions against
        the dead model's fingerprint.  Recovery (:meth:`restore_state`)
        therefore invalidates the memo; the next admit per model
        re-derives its entry once and re-warms.
        """
        self._memos.clear()

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

        memo = self._memos.get(id(model)) or self._remember(model)
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
                            key=memo.key,
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
                    key=memo.key,
                )
        if fallback:
            decision = self.tables.lookup(
                model,
                self.capacity,
                self.qos,
                self._fallback_method,
                key=memo.fallback_key,
            )
            self.fallbacks += 1
            if enabled:
                self.recorder.fallbacks += 1

        fingerprint = memo.fingerprint
        bandwidth = decision.effective_bandwidth
        class_counts = self.class_counts
        if fallback:
            # The fallback boundary is a peak-allocation count: total
            # occupancy below it is safe for *any* admitted mix, so no
            # homogeneity guard applies here.
            admitted = len(connections) < decision.admissible
            if admitted and self.policy == EFFECTIVE_BANDWIDTH_METHOD:
                bandwidth = memo.peak_charge
        elif self.policy == EFFECTIVE_BANDWIDTH_METHOD:
            admitted = self.admitted_bandwidth + bandwidth <= self.capacity
        else:
            if class_counts and fingerprint not in class_counts:
                raise self._mix_error()
            admitted = class_counts.get(fingerprint, 0) < decision.admissible
        if admitted:
            connection = memo.connections.get(bandwidth)
            if connection is None:
                connection = memo.connections[bandwidth] = _Connection(
                    fingerprint, memo.mean, bandwidth
                )
            connections[connection_id] = connection
            class_counts[fingerprint] = class_counts.get(fingerprint, 0) + 1
            if bandwidth is not None:
                self.admitted_bandwidth += bandwidth
            self.admitted_mean_load += memo.mean
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
        # Positional: a named tuple builds about twice as fast so.
        return AdmissionDecision(
            admitted,
            self.link_id,
            connection_id,
            self.policy,
            REASON_ADMITTED if admitted else REASON_CAPACITY,
            decision.admissible,
            len(connections),
            bandwidth,
            fallback,
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
        memo = self._memos.get(id(model)) or self._remember(model)
        fingerprint = memo.fingerprint
        class_counts = self.class_counts
        if class_counts and fingerprint not in class_counts:
            raise self._mix_error()
        mean = memo.mean
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
        up = memo.connections[None]
        for connection_id in survivors:
            connections[connection_id] = up
        if connections:
            class_counts[fingerprint] = len(connections)
        else:
            class_counts.pop(fingerprint, None)
        self.admitted_mean_load = float(loads[-1])
        self.admitted += n_admits
        self.released += len(admits) - n_admits
        self.tables.count_hits(memo.key, n_admits)
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

        Also invalidates the model memo: the restored world may pair
        recycled ``id()`` values with different models, and a
        recovered shard must never serve a decision against a stale
        fingerprint.
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
