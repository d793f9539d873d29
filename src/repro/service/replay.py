"""Workload replay: millions of admission requests through the engine.

The driver closes the loop from the paper's Table-1-style capacity
numbers to a *served* workload: it streams a synthetic connection
workload (:mod:`repro.service.workload`) through an
:class:`~repro.service.engine.AdmissionEngine` per link and measures
what the offline tables only predict — blocking probability,
time-averaged utilization, and whether the online boundary matches the
offline admissible N.

Scale comes from two places:

* **decision-table caching** — each link performs one offline
  inversion per distinct class and serves every further request from
  the LRU table, so a million-request replay costs a handful of
  Bahadur-Rao inversions (`ReplaySummary.cache_hit_rate` reports the
  measured ratio); a persisted table file is read once and its text
  travels in every shard's payload (a few hundred bytes a decision);
* **link sharding** — links are statistically independent (their RNG
  streams are ``SeedSequence``-spawned children of one seed), so the
  replay fans them out across the :mod:`repro.parallel` backends
  through :class:`~repro.service.supervision.ShardSupervisor`.  As
  everywhere in this library, parallel runs are **bit-identical** to
  serial ones: per-link statistics are computed by identical code on
  identical generator states, come back as :class:`LinkStats`
  objects, and are pooled in link-index order, so the summary —
  including every float — does not depend on ``jobs``.

Fault tolerance extends that contract to crashes.  With
``journal_dir=`` each link shard journals every decision
(:mod:`repro.service.journal`) and snapshots its full state
periodically; with ``supervision=`` a crashed or hung shard is
restarted (:mod:`repro.service.supervision`, which hands every
attempt an unadvanced copy of the link's stream) and the fresh attempt
recovers from the journal — restoring accumulators, the departure
heap, table counters, and overload state *exactly*, then re-applying
the post-snapshot events — so a recovered replay's summary is
**byte-identical** to one that never crashed.  ``overload=`` bounds
the admission path past saturation (deterministic shedding + breaker
fallback, :mod:`repro.service.overload`), and ``faults=`` accepts a
:class:`~repro.resilience.faults.ServiceFaultPlan` so every recovery
path is deterministically testable.

Every replayed decision is also checked against the offline boundary
in place: a request admitted at occupancy >= N or blocked below N
would increment ``boundary_violations``, which a healthy replay
reports as zero (shed and fallback decisions are excluded — they are
decided against the overload policy, not the primary boundary).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.atm.qos import QoSRequirement
from repro.exceptions import JournalError, ParameterError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs.spans import span
from repro.parallel.backends import Backend, resolve_backend
from repro.resilience.faults import (
    NO_CUES,
    FaultyDecisionTables,
    InjectedCrash,
    ServiceFaultPlan,
)
from repro.service.engine import AdmissionEngine
from repro.service.journal import (
    LinkJournal,
    find_recovery,
    journal_path,
)
from repro.service.kernel import LinkLane
from repro.service.overload import OverloadPolicy
from repro.service.supervision import (
    FAIL_FAST,
    ShardSupervisor,
    SupervisionPolicy,
)
from repro.service.tables import (
    DecisionTableCache,
    load_table,
    model_fingerprint,
)
from repro.service.workload import (
    ConnectionClass,
    WorkloadSpec,
    generate_workload,
)
from repro.utils.replication_context import current_attempt
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "LinkStats",
    "ReplaySummary",
    "replay_link",
    "replay_workload",
]


@dataclass(frozen=True)
class LinkStats:
    """Measured outcome of one link's replay."""

    link_index: int
    n_requests: int
    admitted: int
    blocked: int
    #: Requests dropped by the overload policy before any table work.
    shed: int
    #: Decisions served by the breaker's conservative fallback policy.
    fallbacks: int
    peak_occupancy: int
    #: Offline admissible N for the first class (the boundary the
    #: online decisions were checked against).
    admissible: int
    #: Decisions inconsistent with the offline boundary (must be 0).
    boundary_violations: int
    #: Integral of carried mean load over time (cells/frame x seconds).
    carried_load_seconds: float
    elapsed_seconds: float
    cache_hits: int
    cache_misses: int

    @property
    def blocking_probability(self) -> float:
        return self.blocked / self.n_requests if self.n_requests else 0.0

    @property
    def shed_ratio(self) -> float:
        return self.shed / self.n_requests if self.n_requests else 0.0

    def utilization(self, capacity: float) -> float:
        """Time-averaged carried load as a fraction of ``capacity``."""
        denominator = capacity * self.elapsed_seconds
        return self.carried_load_seconds / denominator if denominator else 0.0


@dataclass(frozen=True)
class ReplaySummary:
    """Pooled outcome of a multi-link replay (links in index order)."""

    policy: str
    capacity: float
    n_links: int
    n_requests: int
    admitted: int
    blocked: int
    shed: int
    fallbacks: int
    blocking_probability: float
    #: Mean over links of the time-averaged utilization.
    utilization: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    boundary_violations: int
    offered_erlangs: float
    links: Tuple[LinkStats, ...]

    @property
    def shed_ratio(self) -> float:
        return self.shed / self.n_requests if self.n_requests else 0.0


def _journal_fingerprint(
    spec: WorkloadSpec,
    classes: Sequence[ConnectionClass],
    *,
    capacity: float,
    qos: QoSRequirement,
    policy: str,
    link_index: int,
) -> str:
    """A stable identity for one shard's replay configuration.

    Guards recovery against replaying a journal written for a
    different workload, class mix, capacity, QoS, policy, or link.
    (The RNG seed is embedded in the generator and not independently
    hashable; the workload spec carries everything else that shapes
    the event stream.)
    """
    payload = json.dumps(
        {
            "n_requests": spec.n_requests,
            "arrival_rate": float(spec.arrival_rate).hex(),
            "mean_holding_time": float(spec.mean_holding_time).hex(),
            "holding": spec.holding,
            "tail_gamma": float(spec.tail_gamma).hex(),
            "classes": [
                [c.name, model_fingerprint(c.model), float(c.weight).hex()]
                for c in classes
            ],
            "capacity": float(capacity).hex(),
            "max_delay_seconds": float(qos.max_delay_seconds).hex(),
            "max_clr": float(qos.max_clr).hex(),
            "policy": policy,
            "link_index": int(link_index),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def replay_link(
    spec: WorkloadSpec,
    classes: Sequence[ConnectionClass],
    *,
    capacity: float,
    qos: QoSRequirement,
    policy: str,
    rng: RngLike,
    link_index: int = 0,
    table_path=None,
    table_text: Optional[str] = None,
    journal_prefix=None,
    snapshot_every: int = 2000,
    overload: Optional[OverloadPolicy] = None,
    faults: Optional[ServiceFaultPlan] = None,
) -> LinkStats:
    """Replay one link's workload through a fresh engine.

    The link's decision table starts from the persisted file at
    ``table_path`` or, failing that, from ``table_text`` — that
    file's JSONL text as it travels in a shard's payload.  Either way
    the cache state (entries, counters) is identical to a file load.

    Event-driven: each request, in arrival order, is one
    :meth:`~repro.service.kernel.LinkLane.step` — departures drained
    from a heap, the carried-load integral updated at every state
    change, the decision checked against the offline boundary — the
    step a ``drive`` shard and ``adaptive_replay_link`` run too.  The
    engine and its decision-table cache are private to the link, so a
    link's statistics do not depend on what other links (or
    processes) did — the bit-identity contract.

    With ``journal_prefix`` every decision is journaled
    (``<prefix>.a<attempt>.jsonl``) and the full state snapshotted
    every ``snapshot_every`` events.  A restarted attempt (attempt
    number read from the ambient replication context) recovers from
    the newest prior attempt's journal: snapshot restored exactly,
    post-snapshot events re-applied, then the live loop resumes —
    producing statistics byte-identical to an uninterrupted run.
    """
    snapshot_every = check_integer(snapshot_every, "snapshot_every", minimum=1)
    context = current_attempt()
    attempt = context[1] if context is not None else 0
    cues = (
        faults.shard_cues(link_index, attempt)
        if faults is not None
        else NO_CUES
    )

    tables = (
        load_table(table_text)
        if table_path is None
        else DecisionTableCache(path=table_path, persist=False)
    )
    faulty_tables = None
    if cues.table_faults:
        faulty_tables = FaultyDecisionTables(tables, cues.table_faults, policy)
        tables = faulty_tables
    engine = AdmissionEngine(policy=policy, tables=tables, overload=overload)
    link_id = f"link-{link_index}"
    engine.add_link(link_id, capacity, qos)
    workload = generate_workload(spec, classes, rng)
    lane = LinkLane(engine, link_id, workload, [c.model for c in classes])

    recovery = None
    fingerprint = None
    if journal_prefix is not None:
        fingerprint = _journal_fingerprint(
            spec,
            classes,
            capacity=capacity,
            qos=qos,
            policy=policy,
            link_index=link_index,
        )
        recovery = find_recovery(journal_prefix, attempt, fingerprint)

    boundary = None
    if recovery is not None and recovery.snapshot_state is not None:
        lane.restore(recovery.snapshot_state)
        # The restored table counters already include the boundary
        # lookup the dead attempt performed; peek instead of lookup so
        # hit/miss totals stay byte-identical to a fault-free run.
        boundary = tables.peek(classes[0].model, capacity, qos, policy)
    if boundary is None:
        # The boundary the replay is checked against: admissible N of
        # the first class (deterministically the first table miss).
        boundary = tables.lookup(classes[0].model, capacity, qos, policy)

    journal = None
    if journal_prefix is not None:
        journal = LinkJournal(
            journal_path(journal_prefix, attempt),
            fingerprint,
            attempt=attempt,
        )
        if recovery is not None and recovery.snapshot_state is not None:
            # Seed this epoch's journal with the inherited snapshot so
            # a *second* crash recovers from this file alone.
            journal.snapshot(recovery.snapshot_seq, recovery.snapshot_state)

    step = lane.step

    def journaled_step(i: int, forced=None) -> None:
        """``lane.step`` with table-fault cues and the journal around
        it; ``forced`` is the journaled event being re-applied."""
        if faulty_tables is not None:
            faulty_tables.current_request = i
        kind, decision = step(
            i, forced.fallback if forced is not None else False
        )
        if forced is not None and kind != forced.kind:
            raise JournalError(
                f"link {link_index}: recomputed decision {kind!r} for "
                f"event {i} disagrees with journaled {forced.kind!r}; "
                "the journal does not describe this workload"
            )
        if journal is not None:
            if cues.torn_event == i:
                journal.torn_event(i, kind, fallback=decision.fallback)
                raise InjectedCrash(
                    f"injected torn journal write at event {i} on "
                    f"link {link_index} attempt {attempt}"
                )
            journal.event(i, kind, fallback=decision.fallback)
            if (i + 1) % snapshot_every == 0:
                journal.snapshot(i, lane.capture(i))

    live_step = (
        step if journal is None and faulty_tables is None else journaled_step
    )
    start = 0
    try:
        with span(
            "service.replay.link",
            link=link_index,
            attempt=attempt,
            requests=workload.n_requests,
            policy=policy,
        ):
            if recovery is not None:
                # Re-apply the dead attempt's post-snapshot events.
                # They run the same code as live requests (real table
                # lookups against exactly-restored caches), with the
                # journaled outcome asserted and fallback provenance
                # forced, so counters and floats advance identically.
                for event in recovery.events:
                    journaled_step(event.seq, event)
                start = recovery.next_seq
                if _spans._ENABLED and recovery.events:
                    _metrics.add(
                        "service.journal.events_reapplied",
                        len(recovery.events),
                    )
            for i in range(start, workload.n_requests):
                if cues.hang is not None and cues.hang[0] == i:
                    time.sleep(cues.hang[1])
                if cues.crash_request == i:
                    raise InjectedCrash(
                        f"injected shard crash before request {i} on "
                        f"link {link_index} attempt {attempt}"
                    )
                live_step(i)
    finally:
        if journal is not None:
            journal.close()

    # A crashed attempt never gets here: its unflushed telemetry is
    # dropped, as a failed pool attempt's captured telemetry is.
    engine.flush_telemetry()
    if _spans._ENABLED:
        _metrics.add("service.requests_replayed", workload.n_requests)
        # add(0) still registers the instrument, so serial and
        # parallel snapshots list the same counters.
        _metrics.add("service.boundary_violations", lane.boundary_violations)

    return LinkStats(
        link_index=link_index,
        n_requests=workload.n_requests,
        admitted=lane.admitted,
        blocked=lane.blocked,
        shed=lane.shed,
        fallbacks=lane.fallbacks,
        peak_occupancy=lane.peak_occupancy,
        admissible=boundary.admissible,
        boundary_violations=lane.boundary_violations,
        carried_load_seconds=lane.carried_load_seconds,
        elapsed_seconds=workload.horizon_seconds,
        cache_hits=tables.hits,
        cache_misses=tables.misses,
    )


@dataclass(frozen=True, eq=False)
class _LinkReplayTask:
    """Picklable body of one link's replay, for any backend."""

    spec: WorkloadSpec
    classes: Tuple[ConnectionClass, ...]
    capacity: float
    qos: QoSRequirement
    policy: str
    table_text: Optional[str] = None
    journal_dir: Optional[str] = None
    snapshot_every: int = 2000
    overload: Optional[OverloadPolicy] = None
    faults: Optional[ServiceFaultPlan] = None

    def __call__(self, index: int, generator: np.random.Generator):
        journal_prefix = (
            None
            if self.journal_dir is None
            else str(Path(self.journal_dir) / f"link-{index}")
        )
        return replay_link(
            self.spec,
            self.classes,
            capacity=self.capacity,
            qos=self.qos,
            policy=self.policy,
            rng=generator,
            link_index=index,
            table_text=self.table_text,
            journal_prefix=journal_prefix,
            snapshot_every=self.snapshot_every,
            overload=self.overload,
            faults=self.faults,
        )


def _pool_links(
    policy: str,
    capacity: float,
    spec: WorkloadSpec,
    links: Sequence[LinkStats],
) -> ReplaySummary:
    """Aggregate per-link stats in index order (float order fixed)."""
    n_requests = sum(s.n_requests for s in links)
    admitted = sum(s.admitted for s in links)
    blocked = sum(s.blocked for s in links)
    shed = sum(s.shed for s in links)
    fallbacks = sum(s.fallbacks for s in links)
    # Guarded like the per-link ratios: a zero-length sweep point
    # (no links, or links that served nothing) reports 0.0 by
    # contract, never a ZeroDivisionError.
    utilization = 0.0
    for stats in links:
        utilization += stats.utilization(capacity)
    utilization = utilization / len(links) if links else 0.0
    cache_hits = sum(s.cache_hits for s in links)
    cache_misses = sum(s.cache_misses for s in links)
    cache_total = cache_hits + cache_misses
    return ReplaySummary(
        policy=policy,
        capacity=float(capacity),
        n_links=len(links),
        n_requests=n_requests,
        admitted=admitted,
        blocked=blocked,
        shed=shed,
        fallbacks=fallbacks,
        blocking_probability=blocked / n_requests if n_requests else 0.0,
        utilization=utilization,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        cache_hit_rate=cache_hits / cache_total if cache_total else 0.0,
        boundary_violations=sum(s.boundary_violations for s in links),
        offered_erlangs=spec.offered_erlangs,
        links=tuple(links),
    )


def replay_workload(
    spec: WorkloadSpec,
    classes: Sequence[ConnectionClass],
    *,
    n_links: int = 1,
    capacity: float,
    qos: Optional[QoSRequirement] = None,
    policy: str = "bahadur-rao",
    rng: RngLike = None,
    backend: Optional[Backend] = None,
    jobs: Optional[int] = None,
    table_path=None,
    journal_dir=None,
    snapshot_every: int = 2000,
    supervision: Optional[SupervisionPolicy] = None,
    overload: Optional[OverloadPolicy] = None,
    faults: Optional[ServiceFaultPlan] = None,
) -> ReplaySummary:
    """Replay ``spec`` on every link and pool the measured statistics.

    Each of the ``n_links`` independent links runs the same workload
    specification on its own ``SeedSequence``-spawned stream.  With
    ``jobs=N`` (or an explicit ``backend=``) links fan out across
    worker processes (the shared warm pool for ``jobs=N``); the
    summary is bit-identical to a serial run on the same seed.
    ``table_path`` points every link at a shared persisted decision
    table (read once here and loaded read-only by every link from its
    text, which travels in each shard's payload).

    Without ``supervision`` a failed shard fails the whole replay
    (:data:`~repro.service.supervision.FAIL_FAST`).  With it, crashed
    and hung shards are restarted up to the policy's budget, each
    restart recovering from the shard's journal when ``journal_dir``
    is set — the summary remains byte-identical to a fault-free run.
    """
    n_links = check_integer(n_links, "n_links", minimum=1)
    check_positive(capacity, "capacity")
    qos = qos if qos is not None else QoSRequirement()
    if faults is not None and supervision is None:
        raise ParameterError(
            "a ServiceFaultPlan requires supervision= (an unsupervised "
            "replay would simply die at the first injected fault)"
        )
    exec_backend = resolve_backend(backend, jobs)
    table_text = None
    if table_path is not None and Path(table_path).exists():
        table_text = Path(table_path).read_text(encoding="utf-8")
    with span(
        "service.replay",
        links=n_links,
        requests=spec.n_requests * n_links,
        policy=policy,
        jobs=1 if exec_backend is None else exec_backend.jobs,
    ):
        task = _LinkReplayTask(
            spec=spec,
            classes=tuple(classes),
            capacity=float(capacity),
            qos=qos,
            policy=policy,
            table_text=table_text,
            journal_dir=None if journal_dir is None else str(journal_dir),
            snapshot_every=snapshot_every,
            overload=overload,
            faults=faults,
        )
        links = ShardSupervisor(
            [(task, stream) for stream in spawn_generators(rng, n_links)],
            backend=exec_backend,
            policy=supervision if supervision is not None else FAIL_FAST,
        ).run()
    return _pool_links(policy, capacity, spec, links)
