"""Background decision-table recompute and hot swap under drift.

The static service path computes its decision table once, offline,
from the *declared* traffic descriptors — exactly the paper's Table-1
methodology.  Under nonstationary traffic that table silently rots:
after a regime switch the declared class no longer describes what is
on the wire, and a boundary sized for a conference source carried by
a video stream over-admits by 5x.  This module closes the control
loop:

1. a :class:`~repro.adaptive.drift.DriftDetector` watches each
   link's observation stream;
2. on drift, the estimated marginal statistics are matched against a
   candidate-model library (:func:`match_model`) and the affected
   table entries are rebuilt **off the hot path** by
   :class:`RecomputeEngine` — inline in the replay shard, between two
   requests, where determinism is king;
3. the rebuilt entries are published by *atomic swap*: one
   ``load_text`` into the live cache (last-write-wins per key), one
   hot-path invalidation, one generation increment.  No request ever
   observes a half-written table and none is dropped while the swap
   happens — the swap runs between requests on the replay clock, and
   the frontend republish installs a complete new snapshot before
   retiring the old one.

:func:`adaptive_replay` is the measurement harness: it replays a
seeded nonstationary workload with adaptation on or off and reports
the observed CLR trajectory, so the ``adapt`` experiment can show the
static table violating the CLR target after a regime switch while the
adaptive table detects, recomputes, swaps exactly once, and holds it.
Serial and ``--jobs N`` runs are **byte-identical**: detection
indices, swap points, and rebuilt entries are pure functions of the
per-link seeded streams, pooled in link-index order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.atm.qos import QoSRequirement
from repro.adaptive.drift import DriftDetector, DriftEvent
from repro.adaptive.nonstationary import (
    NonstationaryWorkload,
    RegimePlan,
    generate_nonstationary_workload,
)
from repro.core.bahadur_rao import bahadur_rao_bop
from repro.exceptions import ParameterError, StabilityError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs.spans import span
from repro.parallel.backends import Backend, resolve_backend
from repro.service.engine import AdmissionEngine
from repro.service.kernel import LinkLane
from repro.service.supervision import FAIL_FAST, ShardSupervisor
from repro.service.tables import (
    DecisionTableCache,
    _compute_decision,
    decision_key,
    model_fingerprint,
)
from repro.service.workload import ConnectionClass, WorkloadSpec
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "AdaptiveLinkStats",
    "AdaptiveSummary",
    "RecomputeEngine",
    "adaptive_replay",
    "adaptive_replay_link",
    "match_model",
    "observed_clr",
    "rebuild_table_text",
]


def observed_clr(
    model,
    capacity: float,
    qos: QoSRequirement,
    n_connections: int,
) -> float:
    """The Bahadur-Rao CLR of ``n_connections`` of ``model`` on a link.

    The per-source operating point is (c, b) = (C/n, B/n); an
    unstable point (offered mean >= capacity) reports 1.0 — the
    honest answer for a link admitted past stability — and an empty
    link reports 0.0.
    """
    if n_connections <= 0:
        return 0.0
    buffer_cells = qos.buffer_cells(capacity, model.frame_duration)
    try:
        return float(
            bahadur_rao_bop(
                model,
                capacity / n_connections,
                buffer_cells / n_connections,
                n_connections,
            ).bop
        )
    except StabilityError:
        return 1.0


def match_model(
    mean: float,
    std: float,
    candidates: Sequence[ConnectionClass],
) -> ConnectionClass:
    """The candidate class nearest the estimated (mean, std).

    Distance is the summed relative deviation of both statistics —
    scale-free, so a 500-cells/frame video class and a 100-cells/frame
    conference class compete fairly.  Ties break to the earlier
    candidate (deterministic).
    """
    if not candidates:
        raise ParameterError("match_model needs at least one candidate")
    best = None
    best_distance = float("inf")
    for cls in candidates:
        model_mean = float(cls.model.mean)
        model_std = float(cls.model.std)
        distance = abs(mean - model_mean) / max(abs(model_mean), 1e-12) + abs(
            std - model_std
        ) / max(model_std, 1e-12)
        if distance < best_distance:
            best = cls
            best_distance = distance
    return best


def rebuild_table_text(
    declared: Sequence[ConnectionClass],
    estimated_model,
    capacity: float,
    qos: QoSRequirement,
    methods: Sequence[str],
) -> str:
    """Rebuilt table entries: declared keys, estimated statistics.

    This is the heart of the adaptation: the admission path keeps
    looking decisions up under the *declared* descriptors (subscribers
    have not re-signalled), but each entry's admissible count is
    recomputed from the *estimated* model actually on the wire.  The
    returned JSONL image feeds ``DecisionTableCache.load_text``
    (last-write-wins per key) or a frontend republish unchanged.
    """
    from repro.service.journal import encode_line

    lines = []
    for cls in declared:
        for method in methods:
            key = decision_key(cls.model, capacity, qos, method)
            decision = _compute_decision(
                key, estimated_model, capacity, qos, method
            )
            lines.append(encode_line(decision.to_dict()) + "\n")
    return "".join(lines)


class RecomputeEngine:
    """Rebuilds decision tables off the hot path and counts the work.

    The rebuild runs inline, between two requests of the replay
    clock (where determinism is king); the product is a table
    *image* — the caller performs the atomic swap.
    """

    def __init__(self):
        self.rebuilds = 0

    def rebuild(
        self,
        declared: Sequence[ConnectionClass],
        estimated_model,
        capacity: float,
        qos: QoSRequirement,
        methods: Sequence[str],
    ) -> str:
        """One rebuilt table image (JSONL text)."""
        with span("adaptive.recompute", methods=len(methods)):
            self.rebuilds += 1
            if _spans._ENABLED:
                _metrics.add("adaptive.recomputes")
            return rebuild_table_text(
                declared, estimated_model, capacity, qos, methods
            )


@dataclass(frozen=True)
class AdaptiveLinkStats:
    """Measured outcome of one link's adaptive (or static) replay."""

    link_index: int
    n_requests: int
    admitted: int
    blocked: int
    peak_occupancy: int
    #: Decisions inconsistent with the *current* table's boundary at
    #: decision time (instantaneously consistent through swaps; must
    #: be 0).
    boundary_violations: int
    #: Requests that received no decision at all (the zero-drop swap
    #: guarantee; must be 0).
    dropped: int
    carried_load_seconds: float
    elapsed_seconds: float
    cache_hits: int
    cache_misses: int
    drift_detections: int
    #: Completed table swaps (generation delta over the replay).
    swaps: int
    #: Request index of the first swap (-1: never swapped).
    swap_request_index: int
    #: Request index of the first drift detection (-1: none).
    first_detection_index: int
    #: Admissible boundary before the first swap / after the last.
    initial_admissible: int
    final_admissible: int
    #: Table generation at the end of the replay (starts at 0).
    generation: int
    #: Mean per-request observed CLR before / after the plan's last
    #: true-class switch point (equal when the plan never switches).
    pre_switch_clr: float
    post_switch_clr: float
    #: Observed-CLR trajectory: per-bucket mean over request index.
    clr_bucket_means: Tuple[float, ...]
    clr_bucket_counts: Tuple[int, ...]

    @property
    def blocking_probability(self) -> float:
        return self.blocked / self.n_requests if self.n_requests else 0.0

    @property
    def final_clr(self) -> float:
        """Mean observed CLR of the last non-empty bucket."""
        for mean, count in zip(
            reversed(self.clr_bucket_means), reversed(self.clr_bucket_counts)
        ):
            if count:
                return mean
        return 0.0

    def utilization(self, capacity: float) -> float:
        denominator = capacity * self.elapsed_seconds
        return self.carried_load_seconds / denominator if denominator else 0.0

    def to_dict(self) -> dict:
        data = asdict(self)
        data["blocking_probability"] = self.blocking_probability
        data["final_clr"] = self.final_clr
        data["clr_bucket_means"] = list(self.clr_bucket_means)
        data["clr_bucket_counts"] = list(self.clr_bucket_counts)
        return data


@dataclass(frozen=True)
class AdaptiveSummary:
    """Pooled outcome of a multi-link adaptive replay (index order)."""

    policy: str
    capacity: float
    adapt: bool
    target_clr: float
    plan: str
    n_links: int
    n_requests: int
    admitted: int
    blocked: int
    boundary_violations: int
    dropped: int
    drift_detections: int
    swaps: int
    #: Request-weighted pooled CLR trajectory across links.
    clr_bucket_means: Tuple[float, ...]
    pre_switch_clr: float
    post_switch_clr: float
    final_clr: float
    #: Whether the final observed CLR meets the QoS target.
    holds_target: bool
    links: Tuple[AdaptiveLinkStats, ...]

    def to_dict(self) -> dict:
        return {
            "kind": "adaptive_replay",
            "policy": self.policy,
            "capacity": self.capacity,
            "adapt": self.adapt,
            "target_clr": self.target_clr,
            "plan": self.plan,
            "n_links": self.n_links,
            "n_requests": self.n_requests,
            "admitted": self.admitted,
            "blocked": self.blocked,
            "boundary_violations": self.boundary_violations,
            "dropped": self.dropped,
            "drift_detections": self.drift_detections,
            "swaps": self.swaps,
            "clr_bucket_means": list(self.clr_bucket_means),
            "pre_switch_clr": self.pre_switch_clr,
            "post_switch_clr": self.post_switch_clr,
            "final_clr": self.final_clr,
            "holds_target": self.holds_target,
            "links": [s.to_dict() for s in self.links],
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys): byte-identical across jobs."""
        return json.dumps(self.to_dict(), sort_keys=True)


def adaptive_replay_link(
    spec: WorkloadSpec,
    declared: Sequence[ConnectionClass],
    plan: RegimePlan,
    candidates: Sequence[ConnectionClass],
    *,
    capacity: float,
    qos: QoSRequirement,
    policy: str,
    rng: RngLike,
    link_index: int = 0,
    adapt: bool = True,
    drift_window: int = 256,
    drift_threshold: float = 8.0,
    recompute_lag: int = 64,
    n_buckets: int = 20,
) -> AdaptiveLinkStats:
    """Replay one link's nonstationary workload, adapting (or not).

    Each request is one :meth:`~repro.service.kernel.LinkLane.step`
    (departure heap, carried-load integral, per-request boundary
    check — the step :func:`repro.service.replay.replay_link` runs
    too) with three additions around it:

    * every request's *observation* feeds the link's
      :class:`~repro.adaptive.drift.DriftDetector`;
    * with ``adapt=True``, a detection schedules a table swap
      ``recompute_lag`` requests later (the deterministic stand-in
      for background recompute latency): the rebuilt image — declared
      keys, statistics of the :func:`match_model` estimate — is
      loaded into the live cache between requests, the engine's
      hot-path caches invalidated, and the generation bumped, all
      atomically from the request stream's point of view;
    * every request's observed CLR (Bahadur-Rao at the link's current
      occupancy under the *true* regime model, memoized per (class,
      occupancy)) accumulates into ``n_buckets`` trajectory buckets.

    Everything is a pure function of the seeded stream, so a parallel
    run pools byte-identical per-link statistics.
    """
    check_integer(n_buckets, "n_buckets", minimum=1)
    check_integer(recompute_lag, "recompute_lag", minimum=0)
    check_positive(capacity, "capacity")
    if not declared:
        raise ParameterError("adaptive replay needs a declared class mix")

    tables = DecisionTableCache(persist=False)
    engine = AdmissionEngine(policy=policy, tables=tables)
    link_id = f"link-{link_index}"
    link = engine.add_link(link_id, capacity, qos)
    realization = generate_nonstationary_workload(
        spec, declared, plan, candidates, rng
    )
    workload = realization.workload
    lane = LinkLane(engine, link_id, workload, [c.model for c in declared])
    observations = realization.observations.tolist()
    true_indices = realization.true_indices.tolist()

    boundary = tables.lookup(declared[0].model, capacity, qos, policy)
    initial_admissible = boundary.admissible

    detector = DriftDetector(
        link_id,
        declared[0].model,
        window=drift_window,
        threshold_sigmas=drift_threshold,
    )
    recompute = RecomputeEngine()
    n = workload.n_requests

    switch_points = plan.switch_points(n)
    last_switch = switch_points[-1] if switch_points else 0

    dropped = 0
    generation = 0
    swaps = 0
    swap_request_index = -1
    first_detection_index = -1
    pending_swap: Optional[Tuple[int, ConnectionClass]] = None
    final_admissible = initial_admissible

    bucket_sums = np.zeros(n_buckets)
    bucket_counts = np.zeros(n_buckets, dtype=np.int64)
    pre_sum = 0.0
    pre_count = 0
    post_sum = 0.0
    post_count = 0
    clr_memo: Dict[Tuple[int, int], float] = {}
    step = lane.step

    with span(
        "adaptive.replay.link",
        link=link_index,
        requests=n,
        adapt=adapt,
        policy=policy,
    ):
        for i in range(n):
            # Adaptation happens strictly *between* requests: the swap
            # is invisible to any in-flight decision (atomicity on the
            # replay clock), and no request is ever dropped for it.
            if pending_swap is not None and pending_swap[0] == i:
                _, estimated = pending_swap
                new_text = recompute.rebuild(
                    declared, estimated.model, capacity, qos, (policy,)
                )
                with span("adaptive.swap", link=link_index, request=i):
                    tables.load_text(new_text)
                    engine.invalidate_decision_caches()
                    generation += 1
                    swaps += 1
                    if swap_request_index < 0:
                        swap_request_index = i
                    if _spans._ENABLED:
                        _metrics.add("adaptive.table_swaps")
                detector.rebaseline(estimated.model)
                boundary = tables.lookup(
                    declared[0].model, capacity, qos, policy
                )
                final_admissible = boundary.admissible
                pending_swap = None

            step(i)

            event = detector.update(observations[i])
            if event is not None:
                if first_detection_index < 0:
                    first_detection_index = event.sample_index
                if adapt and pending_swap is None:
                    estimated = match_model(
                        event.observed_mean, event.observed_std, candidates
                    )
                    # A detection whose best-match is the incumbent
                    # model is treated as a false positive (or a
                    # too-early window): no swap, keep watching.  This
                    # is what makes one regime switch produce exactly
                    # one swap — early detections during the mixed
                    # window resolve to the old model and are skipped.
                    if model_fingerprint(estimated.model) != model_fingerprint(
                        detector.model
                    ):
                        pending_swap = (i + 1 + recompute_lag, estimated)

            true_index = true_indices[i]
            occupancy = link.occupancy
            memo_key = (true_index, occupancy)
            clr = clr_memo.get(memo_key)
            if clr is None:
                clr = observed_clr(
                    candidates[true_index].model, capacity, qos, occupancy
                )
                clr_memo[memo_key] = clr
            bucket = i * n_buckets // n
            bucket_sums[bucket] += clr
            bucket_counts[bucket] += 1
            if i < last_switch or last_switch == 0:
                pre_sum += clr
                pre_count += 1
            if i >= last_switch and last_switch > 0:
                post_sum += clr
                post_count += 1

    engine.flush_telemetry()
    if _spans._ENABLED:
        _metrics.add("adaptive.requests_replayed", n)
        _metrics.add("adaptive.samples_observed", detector.samples_seen)
        _metrics.add("adaptive.drift_detections", 0)

    bucket_means = np.zeros(n_buckets)
    nonzero = bucket_counts > 0
    bucket_means[nonzero] = bucket_sums[nonzero] / bucket_counts[nonzero]
    return AdaptiveLinkStats(
        link_index=link_index,
        n_requests=n,
        admitted=lane.admitted,
        blocked=lane.blocked,
        peak_occupancy=lane.peak_occupancy,
        boundary_violations=lane.boundary_violations,
        dropped=dropped,
        carried_load_seconds=lane.carried_load_seconds,
        elapsed_seconds=workload.horizon_seconds,
        cache_hits=tables.hits,
        cache_misses=tables.misses,
        drift_detections=detector.detections,
        swaps=swaps,
        swap_request_index=swap_request_index,
        first_detection_index=first_detection_index,
        initial_admissible=initial_admissible,
        final_admissible=final_admissible,
        generation=generation,
        pre_switch_clr=pre_sum / pre_count if pre_count else 0.0,
        post_switch_clr=post_sum / post_count if post_count else 0.0,
        clr_bucket_means=tuple(float(v) for v in bucket_means),
        clr_bucket_counts=tuple(int(v) for v in bucket_counts),
    )


@dataclass(frozen=True, eq=False)
class _AdaptiveLinkTask:
    """Picklable body of one link's adaptive replay, for any backend."""

    spec: WorkloadSpec
    declared: Tuple[ConnectionClass, ...]
    plan: RegimePlan
    candidates: Tuple[ConnectionClass, ...]
    capacity: float
    qos: QoSRequirement
    policy: str
    adapt: bool
    drift_window: int
    drift_threshold: float
    recompute_lag: int
    n_buckets: int

    def __call__(self, index: int, generator: np.random.Generator):
        return adaptive_replay_link(
            self.spec,
            self.declared,
            self.plan,
            self.candidates,
            capacity=self.capacity,
            qos=self.qos,
            policy=self.policy,
            rng=generator,
            link_index=index,
            adapt=self.adapt,
            drift_window=self.drift_window,
            drift_threshold=self.drift_threshold,
            recompute_lag=self.recompute_lag,
            n_buckets=self.n_buckets,
        )


def adaptive_replay(
    spec: WorkloadSpec,
    declared: Sequence[ConnectionClass],
    plan: RegimePlan,
    candidates: Sequence[ConnectionClass],
    *,
    n_links: int = 1,
    capacity: float,
    qos: Optional[QoSRequirement] = None,
    policy: str = "bahadur-rao",
    rng: RngLike = None,
    adapt: bool = True,
    drift_window: int = 256,
    drift_threshold: float = 8.0,
    recompute_lag: int = 64,
    n_buckets: int = 20,
    backend: Optional[Backend] = None,
    jobs: Optional[int] = None,
) -> AdaptiveSummary:
    """Replay the nonstationary workload on every link and pool.

    Links are independent ``SeedSequence``-spawned streams; with
    ``jobs=N`` they fan out across worker processes and the pooled
    summary — every float — is bit-identical to the serial run.
    """
    n_links = check_integer(n_links, "n_links", minimum=1)
    qos = qos if qos is not None else QoSRequirement()
    exec_backend = resolve_backend(backend, jobs)
    task = _AdaptiveLinkTask(
        spec=spec,
        declared=tuple(declared),
        plan=plan,
        candidates=tuple(candidates),
        capacity=float(capacity),
        qos=qos,
        policy=policy,
        adapt=bool(adapt),
        drift_window=int(drift_window),
        drift_threshold=float(drift_threshold),
        recompute_lag=int(recompute_lag),
        n_buckets=int(n_buckets),
    )
    with span(
        "adaptive.replay",
        links=n_links,
        requests=spec.n_requests * n_links,
        adapt=adapt,
        jobs=1 if exec_backend is None else exec_backend.jobs,
    ):
        links = ShardSupervisor(
            [(task, stream) for stream in spawn_generators(rng, n_links)],
            backend=exec_backend,
            policy=FAIL_FAST,
        ).run()
    return _pool_adaptive(
        policy, capacity, adapt, qos, plan, spec, links, n_buckets
    )


def _pool_adaptive(
    policy: str,
    capacity: float,
    adapt: bool,
    qos: QoSRequirement,
    plan: RegimePlan,
    spec: WorkloadSpec,
    links: Sequence[AdaptiveLinkStats],
    n_buckets: int,
) -> AdaptiveSummary:
    """Aggregate per-link stats in index order (float order fixed)."""
    n_requests = sum(s.n_requests for s in links)
    sums = np.zeros(n_buckets)
    counts = np.zeros(n_buckets, dtype=np.int64)
    pre_sum = pre_count = 0.0
    post_sum = post_count = 0.0
    for stats in links:
        means = np.asarray(stats.clr_bucket_means)
        link_counts = np.asarray(stats.clr_bucket_counts, dtype=np.int64)
        sums += means * link_counts
        counts += link_counts
        pre_sum += stats.pre_switch_clr * stats.n_requests
        pre_count += stats.n_requests
        post_sum += stats.post_switch_clr * stats.n_requests
        post_count += stats.n_requests
    bucket_means = np.zeros(n_buckets)
    nonzero = counts > 0
    bucket_means[nonzero] = sums[nonzero] / counts[nonzero]
    final_clr = 0.0
    for mean, count in zip(reversed(bucket_means), reversed(counts)):
        if count:
            final_clr = float(mean)
            break
    return AdaptiveSummary(
        policy=policy,
        capacity=float(capacity),
        adapt=bool(adapt),
        target_clr=float(qos.max_clr),
        plan=plan.describe(),
        n_links=len(links),
        n_requests=n_requests,
        admitted=sum(s.admitted for s in links),
        blocked=sum(s.blocked for s in links),
        boundary_violations=sum(s.boundary_violations for s in links),
        dropped=sum(s.dropped for s in links),
        drift_detections=sum(s.drift_detections for s in links),
        swaps=sum(s.swaps for s in links),
        clr_bucket_means=tuple(float(v) for v in bucket_means),
        pre_switch_clr=pre_sum / pre_count if pre_count else 0.0,
        post_switch_clr=post_sum / post_count if post_count else 0.0,
        final_clr=final_clr,
        holds_target=final_clr <= float(qos.max_clr),
        links=tuple(links),
    )
