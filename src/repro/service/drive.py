"""Open-loop rho-driven load against the sharded admission frontend.

The M/G/k harness of ``emcrisostomo/latency-simulation`` is the
exemplar this module transplants to connection admission
control: pick the *utilization* rho as the control variable, derive
the open-loop arrival rate from it, sweep rho toward (and past) 1,
and chart what the tail does.  For a link whose offline boundary
admits ``N`` connections of mean holding time ``tau``, offered load
``a = rho * N`` Erlangs requires arrival rate ``lambda = rho * N /
tau`` (:func:`derive_arrival_rate`) — so ``rho = 1`` offers exactly
the admissible boundary and ``rho > 1`` drives the service into its
documented overload regime (``docs/ROBUSTNESS.md``).

Execution is the frontend's sharded data plane, open-loop:

* links are placed on shards by the same
  :class:`~repro.service.frontend.ConsistentHashRing` the frontend
  serves from;
* the decision-table snapshot is the frontend's
  (:func:`~repro.service.frontend.build_table_snapshot`), built once
  and shipped to the shards as its JSONL text in each shard's payload
  (about 2 KB for four classes); every shard loads a private cache
  from it, so no lock is shared;
* each shard runs as one task through
  :class:`~repro.service.supervision.ShardSupervisor` on the
  :mod:`repro.parallel` backends — the warm worker pool for
  ``jobs > 1`` — with its links' streams as the shard's stream, and
  its :class:`ShardDriveStats` comes back as itself;
* every link keeps its own ``SeedSequence``-spawned stream and its
  own per-link overload state, and each of its requests is one
  :meth:`~repro.service.kernel.LinkLane.step`, so the
  admitted/blocked/shed/fallback counters of a link are
  **byte-identical** to a :func:`repro.service.replay.replay_link`
  run of the same spec on the same seed — and independent of the
  shard count and ``jobs`` (the backpressure contract, preserved
  under sharding);
* admit latency lands in the ``service.admit_latency_ns``
  :class:`~repro.obs.sketch.QuantileSketch` (aggregate and per link),
  flushed once per shard from the links' recorders and merged across
  shards in shard-index order; each sweep point reports p50/p99/p999
  of the window its own requests added, aggregate and per link,
  leaving the caller's telemetry in place.

``runner drive`` is the CLI (:mod:`repro.service.frontend_cli`); CI's
``frontend-smoke`` job drives 100k requests across 4 links and gates
the recorded throughput through ``obs compare``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs import tracectx as _tracectx
from repro.obs.sketch import QuantileSketch
from repro.obs.spans import span
from repro.parallel.backends import Backend, resolve_backend
from repro.service.engine import AdmissionEngine
from repro.service.frontend import ConsistentHashRing, build_table_snapshot
from repro.service.kernel import LinkLane
from repro.service.overload import OverloadPolicy
from repro.service.supervision import FAIL_FAST, ShardSupervisor
from repro.service.telemetry import AGGREGATE_LATENCY
from repro.service.tables import SERVICE_METHODS, load_table
from repro.service.workload import (
    ConnectionClass,
    WorkloadSpec,
    generate_workload,
)
from repro.utils.rng import spawn_generators
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "DrivePoint",
    "DriveReport",
    "ShardDriveStats",
    "derive_arrival_rate",
    "drive",
]

#: The quantiles every sweep point reports, aggregate and per link.
DRIVE_QUANTILES = (0.5, 0.99, 0.999)


def derive_arrival_rate(
    rho: float, admissible: int, mean_holding_time: float
) -> float:
    """The open-loop arrival rate offering ``rho x admissible`` Erlangs.

    Classical Erlang bookkeeping: offered load ``a = lambda * tau``
    connections, so utilization ``rho = a / N`` of a boundary that
    admits ``N`` requires ``lambda = rho * N / tau``.  Exact by
    construction — the property suite asserts
    ``WorkloadSpec.offered_erlangs == rho * N`` to float precision
    for every holding-time law.
    """
    check_positive(rho, "rho")
    admissible = check_integer(admissible, "admissible", minimum=1)
    check_positive(mean_holding_time, "mean_holding_time")
    return rho * admissible / mean_holding_time


@dataclass(frozen=True)
class ShardDriveStats:
    """Measured outcome of one shard's open-loop drive."""

    shard_index: int
    n_links: int
    n_requests: int
    admitted: int
    blocked: int
    shed: int
    fallbacks: int
    boundary_violations: int
    peak_occupancy: int
    #: Wall-clock the shard spent in its decision loop.
    elapsed_seconds: float

    @property
    def decisions_per_second(self) -> float:
        return (
            self.n_requests / self.elapsed_seconds
            if self.elapsed_seconds
            else 0.0
        )


@dataclass(frozen=True)
class DrivePoint:
    """One rho grid point of the sweep."""

    rho: float
    offered_erlangs: float
    arrival_rate: float
    n_requests: int
    admitted: int
    blocked: int
    shed: int
    fallbacks: int
    boundary_violations: int
    peak_occupancy: int
    #: Wall-clock of the whole parallel region (all shards).
    wall_seconds: float
    #: Aggregate admit decisions per second across shards.
    decisions_per_second: float
    #: p50/p99/p999 admit latency in ns (None when unmeasured).
    admit_latency_ns: Dict[str, Optional[float]]
    #: The same quantiles per link, keyed by link id in link-index
    #: order.
    link_admit_latency_ns: Dict[str, Dict[str, Optional[float]]]
    shards: Tuple[ShardDriveStats, ...]

    @property
    def blocking_probability(self) -> float:
        return self.blocked / self.n_requests if self.n_requests else 0.0

    @property
    def shed_ratio(self) -> float:
        return self.shed / self.n_requests if self.n_requests else 0.0

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "offered_erlangs": self.offered_erlangs,
            "arrival_rate": self.arrival_rate,
            "n_requests": self.n_requests,
            "admitted": self.admitted,
            "blocked": self.blocked,
            "shed": self.shed,
            "shed_ratio": self.shed_ratio,
            "fallbacks": self.fallbacks,
            "blocking_probability": self.blocking_probability,
            "boundary_violations": self.boundary_violations,
            "peak_occupancy": self.peak_occupancy,
            "wall_seconds": self.wall_seconds,
            "decisions_per_second": self.decisions_per_second,
            "admit_latency_ns": dict(self.admit_latency_ns),
            "link_admit_latency_ns": {
                link_id: dict(q)
                for link_id, q in self.link_admit_latency_ns.items()
            },
        }


@dataclass(frozen=True)
class DriveReport:
    """The full sweep: configuration plus one point per rho."""

    policy: str
    capacity: float
    n_links: int
    n_shards: int
    requests_per_link: int
    admissible: int
    mean_holding_time: float
    holding: str
    seed: int
    jobs: int
    points: Tuple[DrivePoint, ...]

    @property
    def n_requests(self) -> int:
        return sum(p.n_requests for p in self.points)

    @property
    def boundary_violations(self) -> int:
        return sum(p.boundary_violations for p in self.points)

    def to_dict(self) -> dict:
        """The machine-readable latency-vs-rho report."""
        return {
            "kind": "latency_vs_rho",
            "source": "frontend_drive",
            "policy": self.policy,
            "capacity_cells_per_frame": self.capacity,
            "links": self.n_links,
            "shards": self.n_shards,
            "requests_per_link": self.requests_per_link,
            "admissible": self.admissible,
            "mean_holding_time": self.mean_holding_time,
            "holding": self.holding,
            "seed": self.seed,
            "jobs": self.jobs,
            "quantile_unit": "ns",
            "boundary_violations": self.boundary_violations,
            "rows": [p.to_dict() for p in self.points],
        }


@dataclass(frozen=True, eq=False)
class _ShardDriveTask:
    """Picklable body of one shard's open-loop drive.

    Carries the shard's index, its link ids and the table snapshot's
    text; its stream is the tuple of its links' pre-spawned
    generators.  Builds one engine per link — all sharing one cache
    loaded from the snapshot — and processes the shard's merged
    arrival stream through them.
    """

    shard_index: int
    link_ids: Tuple[str, ...]
    classes: Tuple[ConnectionClass, ...]
    spec: WorkloadSpec
    capacity: float
    qos: QoSRequirement
    policy: str
    table_text: Optional[str] = None
    overload: Optional[OverloadPolicy] = None
    #: Optional nonstationary schedule (``repro.adaptive``): regime
    #: switches and diurnal ramps reshape each link's arrival stream
    #: deterministically; ``regime_classes`` is the candidate library
    #: the plan's class names resolve against (defaults to
    #: ``classes``).
    regime_plan: Optional[object] = None
    regime_classes: Optional[Tuple[ConnectionClass, ...]] = None

    def generate(self, link_generator: np.random.Generator):
        """One link's workload — stationary, or reshaped by the plan."""
        if self.regime_plan is None:
            return generate_workload(self.spec, self.classes, link_generator)
        from repro.adaptive.nonstationary import (
            generate_nonstationary_workload,
        )

        return generate_nonstationary_workload(
            self.spec,
            self.classes,
            self.regime_plan,
            self.regime_classes or self.classes,
            link_generator,
        ).workload

    def __call__(
        self, index: int, link_generators: Tuple[np.random.Generator, ...]
    ) -> ShardDriveStats:
        """Run the shard's decision loop (in a worker or inline).

        One :class:`~repro.service.kernel.LinkLane` per link, all
        sharing the shard's cache; each request of the merged stream
        is one ``lane.step`` of its link, the step
        :func:`~repro.service.replay.replay_link` runs too.
        """
        tables = load_table(self.table_text)
        models = [c.model for c in self.classes]

        workloads = [self.generate(g) for g in link_generators]
        lanes: List[LinkLane] = []
        for link_id, workload in zip(self.link_ids, workloads):
            engine = AdmissionEngine(
                link_id,
                self.capacity,
                self.qos,
                policy=self.policy,
                tables=tables,
                overload=self.overload,
            )
            lanes.append(LinkLane(engine, workload, models))

        # Merge the shard's links into one time-ordered open-loop stream.
        # Stable ordering keeps ties deterministic (and per-link order
        # intact, which the per-link byte-identity contract rests on).
        arrivals = np.concatenate([w.arrival_times for w in workloads])
        link_of = np.concatenate(
            [
                np.full(w.n_requests, i, dtype=np.int64)
                for i, w in enumerate(workloads)
            ]
        )
        req_of = np.concatenate(
            [np.arange(w.n_requests, dtype=np.int64) for w in workloads]
        )
        order = np.argsort(arrivals, kind="stable")
        n_requests = int(arrivals.shape[0])
        steps = [lane.step for lane in lanes]

        started = time.perf_counter()
        with span(
            "service.frontend.drive_shard",
            shard=self.shard_index,
            links=len(lanes),
            requests=n_requests,
            policy=self.policy,
        ):
            for link_index, j in zip(
                link_of[order].tolist(), req_of[order].tolist()
            ):
                steps[link_index](j)
            # Inside the timed region: publishing the links' recorders is
            # part of the shard's work, so elapsed_seconds must count it.
            for lane in lanes:
                lane.engine.flush_telemetry()
        elapsed = time.perf_counter() - started

        boundary_violations = sum(lane.boundary_violations for lane in lanes)
        if _spans._ENABLED:
            _metrics.add("service.frontend.requests", n_requests)
            _metrics.add("service.boundary_violations", boundary_violations)

        engines = [lane.engine for lane in lanes]
        return ShardDriveStats(
            shard_index=self.shard_index,
            n_links=len(lanes),
            n_requests=n_requests,
            admitted=sum(engine.admitted for engine in engines),
            blocked=sum(engine.blocked for engine in engines),
            shed=sum(engine.shed for engine in engines),
            fallbacks=sum(engine.fallbacks for engine in engines),
            boundary_violations=boundary_violations,
            peak_occupancy=max(engine.peak_occupancy for engine in engines),
            elapsed_seconds=elapsed,
        )


def _empty_shard_stats(shard_index: int) -> ShardDriveStats:
    """Stats for a shard the ring left without links (no work ran)."""
    return ShardDriveStats(
        shard_index=shard_index,
        n_links=0,
        n_requests=0,
        admitted=0,
        blocked=0,
        shed=0,
        fallbacks=0,
        boundary_violations=0,
        peak_occupancy=0,
        elapsed_seconds=0.0,
    )


def _latency_snapshot() -> Dict[str, dict]:
    """Every admit-latency sketch as it stands, aggregate and per link."""
    return {
        data["name"]: data
        for data in _metrics.snapshot()
        if data["type"] == "sketch"
        and data["name"].startswith(AGGREGATE_LATENCY)
    }


def _window_quantiles(
    start: Dict[str, dict], end: Dict[str, dict], name: str
) -> Dict[str, Optional[float]]:
    """Quantiles of sketch ``name``'s latencies between two snapshots.

    The registry is cumulative (the caller's own telemetry stays put),
    so one sweep point is the window between the snapshots taken
    around it.
    """
    if name not in end:
        return {f"p{q}": None for q in DRIVE_QUANTILES}
    sketch = QuantileSketch.window(start.get(name), end[name])
    if not sketch.count:
        return {f"p{q}": None for q in DRIVE_QUANTILES}
    return {f"p{q}": sketch.quantile(q) for q in DRIVE_QUANTILES}


def drive(
    classes: Sequence[ConnectionClass],
    *,
    n_links: int = 1,
    capacity: float,
    qos: Optional[QoSRequirement] = None,
    policy: str = "bahadur-rao",
    rho_grid: Sequence[float] = (0.6, 0.8, 0.9, 0.95, 0.99),
    requests_per_link: int = 10_000,
    mean_holding_time: float = 90.0,
    holding: str = "exponential",
    tail_gamma: float = 1.5,
    n_shards: Optional[int] = None,
    seed: int = 20260806,
    backend: Optional[Backend] = None,
    jobs: Optional[int] = None,
    overload: Optional[OverloadPolicy] = None,
    table_path=None,
    regime_plan=None,
    regime_classes: Optional[Sequence[ConnectionClass]] = None,
) -> DriveReport:
    """Sweep rho, driving the sharded frontend open-loop at each point.

    For each ``rho`` the arrival rate is derived from the first
    class's offline admissible boundary
    (:func:`derive_arrival_rate`), ``n_links`` independent links are
    placed on ``n_shards`` shards by consistent hashing, and each
    shard's merged request stream runs open-loop through
    engine-per-link admission — on worker processes (the warm pool)
    for ``jobs > 1``, every shard loading its decision tables from
    the snapshot text its payload carries.  Per-link decision
    counters are byte-identical to a serial :func:`~repro.service.replay
    .replay_link` of the same spec and independent of ``n_shards`` /
    ``jobs``; latency sketches are merged across shards in
    shard-index order.

    ``n_shards`` defaults to ``jobs`` (or 1): one shard per worker
    keeps every core busy without oversharding the ring.
    """
    n_links = check_integer(n_links, "n_links", minimum=1)
    requests_per_link = check_integer(
        requests_per_link, "requests_per_link", minimum=1
    )
    check_positive(capacity, "capacity")
    check_positive(mean_holding_time, "mean_holding_time")
    if policy not in SERVICE_METHODS:
        raise ParameterError(
            f"unknown admission policy {policy!r}; choose from "
            f"{', '.join(SERVICE_METHODS)}"
        )
    if not classes:
        raise ParameterError("drive needs at least one ConnectionClass")
    rho_grid = tuple(float(r) for r in rho_grid)
    if not rho_grid:
        raise ParameterError("rho_grid must name at least one point")
    for rho in rho_grid:
        if rho <= 0:
            raise ParameterError(f"rho must be > 0, got {rho}")
    qos = qos if qos is not None else QoSRequirement()
    classes = tuple(classes)

    exec_backend = resolve_backend(backend, jobs)
    effective_jobs = 1 if exec_backend is None else exec_backend.jobs
    if n_shards is None:
        n_shards = effective_jobs
    n_shards = check_integer(n_shards, "n_shards", minimum=1)

    # Warm every decision the sweep can need — primary and breaker
    # fallback per class — once, then freeze the table as a snapshot.
    table_text = build_table_snapshot(
        classes,
        capacity=capacity,
        qos=qos,
        policy=policy,
        fallback_method=(
            overload.fallback_method if overload is not None else "peak-rate"
        ),
        table_path=table_path,
    )
    boundary = load_table(table_text).peek(
        classes[0].model, capacity, qos, policy
    )
    admissible = max(boundary.admissible, 1)

    ring = ConsistentHashRing(n_shards)
    link_ids = [f"link-{i}" for i in range(n_links)]
    shard_links: List[List[int]] = [[] for _ in range(n_shards)]
    for link_index, link_id in enumerate(link_ids):
        shard_links[ring.shard_for(link_id)].append(link_index)

    previously_enabled = _spans.is_enabled()
    _spans.enable()
    points: List[DrivePoint] = []
    try:
        with _tracectx.start_trace():
            for rho in rho_grid:
                latency_before = _latency_snapshot()
                arrival_rate = derive_arrival_rate(
                    rho, admissible, mean_holding_time
                )
                spec = WorkloadSpec(
                    n_requests=requests_per_link,
                    arrival_rate=arrival_rate,
                    mean_holding_time=mean_holding_time,
                    holding=holding,
                    tail_gamma=tail_gamma,
                )
                # Per-LINK streams spawned from the root seed: link i's
                # workload is the same no matter which shard serves it
                # (or how many shards/jobs there are).
                link_generators = spawn_generators(seed, n_links)
                work = [
                    (
                        _ShardDriveTask(
                            shard_index=shard_index,
                            link_ids=tuple(link_ids[i] for i in links),
                            classes=classes,
                            spec=spec,
                            capacity=float(capacity),
                            qos=qos,
                            policy=policy,
                            table_text=table_text,
                            overload=overload,
                            regime_plan=regime_plan,
                            regime_classes=(
                                None
                                if regime_classes is None
                                else tuple(regime_classes)
                            ),
                        ),
                        tuple(link_generators[i] for i in links),
                    )
                    for shard_index, links in enumerate(shard_links)
                    # Only the shards the ring gave links run; the
                    # rest report zeros.
                    if links
                ]

                wall_started = time.perf_counter()
                with span(
                    "service.frontend.drive",
                    rho=rho,
                    links=n_links,
                    shards=n_shards,
                    requests=requests_per_link * n_links,
                    jobs=effective_jobs,
                ):
                    results = ShardSupervisor(
                        work, backend=exec_backend, policy=FAIL_FAST
                    ).run()
                wall_seconds = time.perf_counter() - wall_started

                by_shard = {stats.shard_index: stats for stats in results}
                shards = tuple(
                    by_shard[i] if i in by_shard else _empty_shard_stats(i)
                    for i in range(n_shards)
                )
                latency_after = _latency_snapshot()
                admit_latency_ns = _window_quantiles(
                    latency_before, latency_after, AGGREGATE_LATENCY
                )
                link_admit_latency_ns = {
                    link_id: _window_quantiles(
                        latency_before,
                        latency_after,
                        f"{AGGREGATE_LATENCY}.{link_id}",
                    )
                    for link_id in link_ids
                }
                n_requests = sum(s.n_requests for s in shards)
                points.append(
                    DrivePoint(
                        rho=rho,
                        offered_erlangs=rho * admissible,
                        arrival_rate=arrival_rate,
                        n_requests=n_requests,
                        admitted=sum(s.admitted for s in shards),
                        blocked=sum(s.blocked for s in shards),
                        shed=sum(s.shed for s in shards),
                        fallbacks=sum(s.fallbacks for s in shards),
                        boundary_violations=sum(
                            s.boundary_violations for s in shards
                        ),
                        peak_occupancy=max(
                            (s.peak_occupancy for s in shards), default=0
                        ),
                        wall_seconds=wall_seconds,
                        decisions_per_second=(
                            n_requests / wall_seconds
                            if wall_seconds
                            else 0.0
                        ),
                        admit_latency_ns=admit_latency_ns,
                        link_admit_latency_ns=link_admit_latency_ns,
                        shards=shards,
                    )
                )
    finally:
        if not previously_enabled:
            _spans.disable()

    return DriveReport(
        policy=policy,
        capacity=float(capacity),
        n_links=n_links,
        n_shards=n_shards,
        requests_per_link=requests_per_link,
        admissible=admissible,
        mean_holding_time=float(mean_holding_time),
        holding=holding,
        seed=int(seed),
        jobs=effective_jobs,
        points=tuple(points),
    )
