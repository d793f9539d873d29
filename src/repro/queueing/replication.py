"""Replicated simulation experiments (paper Section 5.5).

The paper runs 60 independent replications of half a million frames
per model, "ensuring accurate and numerically confident estimations
which may not be otherwise obtained due to the heavy-tailed ON/OFF
times of the FBNDP model."  This module is that harness: independent
seeded replications, pooled ratio-of-sums CLR estimates, and
per-buffer curves.

Both entry points accept an optional
:class:`~repro.resilience.policy.ResiliencePolicy` (``resilience=``,
or a process-wide default installed via
:func:`repro.resilience.use_policy`).  With a policy, replications run
under the fault-tolerant supervisor of :mod:`repro.resilience.engine`:
failed replications are retried on fresh child streams, completed ones
checkpoint to disk for resume, and a deadline degrades the batch to a
pooled estimate over the completed subset (``degraded=True``) instead
of discarding everything.  Without one, the first failure aborts the
batch (fail-fast) — and a fault-free supervised run is bit-identical
to it, because attempt-0 streams reuse the exact ``spawn_generators``
derivation.

Both entry points also accept an execution backend (``jobs=N`` or an
explicit ``backend=``, see :mod:`repro.parallel`): replications are
independent, so they parallelize across worker processes.  Without
one they run on a :class:`~repro.parallel.backends.SerialBackend`;
either way every attempt goes through the one loop of
:mod:`repro.parallel.dispatch`.  Results are pooled in
replication-index order no matter which worker finishes first, so the
pooled CLR, every summary field, and any checkpoint file are
bit-identical to a serial run on the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ParameterError, SimulationError
from repro.obs import metrics as _metrics
from repro.obs import progress as _progress
from repro.obs import spans as _spans
from repro.parallel.backends import Backend, resolve_backend
from repro.parallel.dispatch import dispatch
from repro.parallel.worker import (
    WorkerBatchPayload,
    WorkerBatchResult,
    WorkerPayload,
    merge_result_telemetry,
    replication_pair,
)
from repro.queueing.multiplexer import ATMMultiplexer
from repro.queueing.statistics import (
    ReplicatedEstimate,
    pooled_clr,
    replicated_estimate,
)
from repro.queueing.workload import (
    simulate_finite_buffer,
    simulate_finite_buffer_batch,
)
from repro.resilience.engine import FailureRecord, run_replications
from repro.resilience.policy import ResiliencePolicy, get_default_policy
from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import (
    check_integer,
    check_nonnegative_array,
    check_simulation_health,
)


@dataclass(frozen=True)
class CLRReplicationSummary:
    """Pooled CLR and per-replication spread for one buffer size.

    ``degraded`` / ``n_failed`` flag partial pools produced by the
    resilience engine (retry budget exhausted or deadline reached);
    fail-fast runs always report a complete pool.
    """

    clr: float
    per_replication: ReplicatedEstimate
    total_lost: float
    total_arrived: float
    degraded: bool = False
    n_failed: int = 0
    n_retried: int = 0
    n_resumed: int = 0
    failures: Tuple[FailureRecord, ...] = ()

    @property
    def observed_loss(self) -> bool:
        """Whether any replication lost cells (CLR resolution check)."""
        return self.total_lost > 0

    def to_json(self) -> dict:
        """JSON-safe dict for JSONL export.

        Delegates the confidence-interval fields to
        :meth:`ReplicatedEstimate.to_json`, which exports ``null``
        bounds (with an :class:`~repro.exceptions.UndefinedCIWarning`)
        for single-replication pools instead of leaking NaN.
        """
        return {
            "clr": self.clr,
            "total_lost": self.total_lost,
            "total_arrived": self.total_arrived,
            "degraded": self.degraded,
            "n_failed": self.n_failed,
            "n_retried": self.n_retried,
            "n_resumed": self.n_resumed,
            "per_replication": self.per_replication.to_json(),
        }


@dataclass(frozen=True)
class _CLRTask:
    """Picklable body of one :func:`replicated_clr` replication.

    Module-level (not a closure) so it survives pickling into spawn
    workers; ``__call__`` matches the engine/backend task signature.
    """

    multiplexer: ATMMultiplexer
    n_frames: int

    def __call__(self, index: int, generator: np.random.Generator):
        result = self.multiplexer.simulate_clr(self.n_frames, generator)
        return result.total_lost, result.arrived_cells


@dataclass(frozen=True, eq=False)
class _CurveTask:
    """Picklable body of one :func:`replicated_clr_curve` replication."""

    multiplexer: ATMMultiplexer
    buffers: np.ndarray
    n_frames: int

    def __call__(self, index: int, generator: np.random.Generator):
        arrivals = self.multiplexer.model.sample_aggregate(
            self.n_frames, self.multiplexer.n_sources, generator
        )
        per_buffer = np.empty(self.buffers.shape[0])
        for i, b in enumerate(self.buffers):
            per_buffer[i] = simulate_finite_buffer(
                arrivals, self.multiplexer.capacity, float(b)
            ).total_lost
        return per_buffer, float(arrivals.sum())


@dataclass(frozen=True)
class _CLRBatchTask:
    """Batched body of :func:`replicated_clr`: one kernel pass per block.

    Row ``i`` samples from ``generators[i]`` and reduces with the same
    row-wise summation as :class:`_CLRTask`, so unpacking a batch
    result yields the exact per-replication floats of the unbatched
    payloads — batching changes task granularity, not arithmetic.
    """

    multiplexer: ATMMultiplexer
    n_frames: int

    def __call__(self, indices, generators):
        result = self.multiplexer.simulate_clr_batch(
            self.n_frames, generators
        )
        totals = result.total_lost
        return tuple(
            (float(totals[i]), float(result.arrived_cells[i]))
            for i in range(len(generators))
        )


@dataclass(frozen=True, eq=False)
class _CurveBatchTask:
    """Batched body of :func:`replicated_clr_curve` replications.

    Samples one arrival path per replication (common random numbers
    across buffer sizes, exactly as :class:`_CurveTask`), then runs
    the 2-D finite-buffer kernel once per buffer size over the whole
    block.
    """

    multiplexer: ATMMultiplexer
    buffers: np.ndarray
    n_frames: int

    def __call__(self, indices, generators):
        arrivals = np.stack(
            [
                self.multiplexer.model.sample_aggregate(
                    self.n_frames, self.multiplexer.n_sources, generator
                )
                for generator in generators
            ]
        )
        per_buffer = np.empty((arrivals.shape[0], self.buffers.shape[0]))
        for i, b in enumerate(self.buffers):
            per_buffer[:, i] = simulate_finite_buffer_batch(
                arrivals, self.multiplexer.capacity, float(b)
            ).total_lost
        return tuple(
            (per_buffer[i].copy(), float(arrivals[i].sum()))
            for i in range(arrivals.shape[0])
        )


#: Target number of batch tasks per worker when auto-sizing: two
#: tasks per process keeps the pool load-balanced (a straggler only
#: delays half a worker's share) without reintroducing per-task
#: dispatch overhead.
_TASKS_PER_WORKER = 2

#: Process-wide default for the ``batch=`` parameter (the runner's
#: ``--batch`` flag installs it so figure modules need no threading).
_DEFAULT_BATCH: Optional[int] = None


def set_default_batch(batch: Optional[int]) -> None:
    """Install a process-wide default for ``batch=`` (None restores
    auto-sizing).  Fail-fast runs consult it on every backend, the
    serial one included; the resilient path always stays
    per-replication."""
    global _DEFAULT_BATCH
    _DEFAULT_BATCH = (
        None if batch is None else check_integer(batch, "batch", minimum=1)
    )


def get_default_batch() -> Optional[int]:
    return _DEFAULT_BATCH


def _resolve_batch(
    batch: Optional[int], n_replications: int, backend: Optional[Backend]
) -> int:
    """Replications per worker task for a fail-fast run.

    ``None`` falls back to the process default, then auto-sizes:
    ``ceil(R / (jobs * _TASKS_PER_WORKER))`` on a process backend,
    1 on the serial one (``backend`` None) and under live telemetry,
    where batching is disabled so per-replication spans keep their
    serial shape.  An explicit ``batch`` is honoured as given on every
    backend (``1`` forces per-replication payloads); explicit batching
    trades per-replication spans for one ``replication_batch`` span
    per block.
    """
    if batch is None:
        batch = _DEFAULT_BATCH
    if batch is not None:
        return check_integer(batch, "batch", minimum=1)
    if backend is None or _spans.is_enabled():
        return 1
    jobs = int(getattr(backend, "jobs", 1) or 1)
    if jobs <= 1:
        return 1
    return max(1, math.ceil(n_replications / (jobs * _TASKS_PER_WORKER)))


def _run_failfast(
    task,
    n_replications: int,
    rng: RngLike,
    backend: Optional[Backend],
    label: str,
    *,
    batch_task=None,
    batch_size: int = 1,
):
    """Run a fail-fast batch on ``backend``; results by index.

    ``backend`` None runs on the serial backend.  Submits every
    replication up front, collects in completion order, and returns
    the results as an index-addressed list — the caller pools in index
    order, so float-addition order is the same on every backend.  The
    first failure re-raises its exception (the original object unless
    it crossed a process), matching fail-fast semantics (other
    in-flight replications are cancelled by the session teardown).

    With ``batch_size > 1`` contiguous replication blocks ship as
    single :class:`WorkerBatchPayload` tasks running ``batch_task``;
    each block unpacks into the same index-addressed per-replication
    results, so pooling is unchanged.
    """
    telemetry = _spans.is_enabled()
    results = [None] * n_replications
    reporter = _progress.reporter(n_replications, label=label)
    try:
        with dispatch(backend) as loop:
            generators = list(spawn_generators(rng, n_replications))
            if batch_size > 1 and batch_task is not None:
                for base in range(0, n_replications, batch_size):
                    block = generators[base : base + batch_size]
                    loop.submit(
                        WorkerBatchPayload(
                            base_index=base,
                            attempt=0,
                            task=batch_task,
                            generators=tuple(block),
                            label=label,
                            telemetry=telemetry,
                            health_check=False,
                        )
                    )
            else:
                for i, rep_rng in enumerate(generators):
                    loop.submit(
                        WorkerPayload(
                            index=i,
                            attempt=0,
                            task=task,
                            generator=rep_rng,
                            label=label,
                            telemetry=telemetry,
                            health_check=False,
                        )
                    )
            for result in loop.events():
                merge_result_telemetry(result)
                if result.failed:
                    raise result.error
                block = (
                    result.results
                    if isinstance(result, WorkerBatchResult)
                    else (result,)
                )
                for item in block:
                    results[item.index] = item
                    _metrics.add("replications_completed")
                    reporter.advance()
    finally:
        reporter.finish()
    return results


def _resolve_policy(
    resilience: Optional[ResiliencePolicy],
) -> Optional[ResiliencePolicy]:
    return resilience if resilience is not None else get_default_policy()


def _reject_resilient_batch(batch: Optional[int]) -> None:
    """Resilient runs retry and checkpoint per replication.

    Batched tasks would make a single worker fault discard (and a
    retry recompute) every replication in the block, and checkpoint
    records would no longer map one-to-one onto replications — so the
    resilient path simply refuses to batch rather than silently
    changing those semantics.
    """
    if batch is not None and check_integer(batch, "batch", minimum=1) > 1:
        raise ParameterError(
            "batch > 1 is fail-fast only: the resilience engine "
            "retries and checkpoints individual replications "
            "(pass batch=None or batch=1, or drop the policy)"
        )


def _fingerprint(
    kind: str,
    multiplexer: ATMMultiplexer,
    n_frames: int,
    buffers: Optional[np.ndarray] = None,
) -> dict:
    """Identity of one replicated batch, for checkpoint validation."""
    fingerprint = {
        "kind": kind,
        "model": repr(multiplexer.model),
        "n_sources": multiplexer.n_sources,
        "c_per_source": multiplexer.c_per_source,
        "n_frames": n_frames,
    }
    if buffers is None:
        fingerprint["buffer_cells"] = multiplexer.buffer_cells
    else:
        fingerprint["buffer_values"] = [float(b) for b in buffers]
    return fingerprint


def _replicate(
    task,
    batch_task,
    n_replications: int,
    rng: RngLike,
    *,
    policy: Optional[ResiliencePolicy],
    backend: Optional[Backend],
    batch: Optional[int],
    fingerprint: dict,
    label: str,
) -> Tuple[list, list, dict, Tuple[FailureRecord, ...]]:
    """Run the replications, fail-fast or under ``policy``.

    Returns ``(lost, arrived, fields, failures)``: the completed
    replications' contributions in index order, the resilience fields
    of the result (none on a fail-fast run) and the engine's failure
    log.  ``backend`` None runs on the serial backend.
    """
    if policy is None:
        results = _run_failfast(
            task,
            n_replications,
            rng,
            backend,
            label,
            batch_task=batch_task,
            batch_size=_resolve_batch(batch, n_replications, backend),
        )
        lost, arrived = zip(*(replication_pair(r.value) for r in results))
        return list(lost), list(arrived), {}, ()
    _reject_resilient_batch(batch)
    engine = run_replications(
        task,
        n_replications,
        rng,
        policy=policy,
        fingerprint=fingerprint,
        label=label,
        backend=backend,
    )
    fields = {
        "degraded": engine.degraded,
        "n_failed": engine.n_failed,
        "n_retried": engine.n_retried,
        "n_resumed": engine.n_resumed,
    }
    return (
        [o.lost for o in engine.outcomes],
        [o.arrived for o in engine.outcomes],
        fields,
        engine.failures,
    )


def replicated_clr(
    multiplexer: ATMMultiplexer,
    n_frames: int,
    n_replications: int,
    rng: RngLike = None,
    *,
    confidence: float = 0.95,
    resilience: Optional[ResiliencePolicy] = None,
    backend: Optional[Backend] = None,
    jobs: Optional[int] = None,
    batch: Optional[int] = None,
) -> CLRReplicationSummary:
    """Estimate the CLR from independent replications.

    The headline estimate pools cells (total lost / total offered);
    per-replication CLRs are kept for the confidence interval.  With a
    resilience policy the batch survives per-replication faults,
    checkpoints, and degrades gracefully past its deadline.  With
    ``jobs=N`` (or an explicit ``backend=``) replications run across
    worker processes; the pooled result is bit-identical to serial.

    ``batch`` sets how many replications each task carries on a
    fail-fast run, on any backend (``None`` auto-sizes from the
    backend's job count, ``1`` forces one task per replication).  The
    resilient path keeps per-replication tasks — retry and checkpoint
    granularity is the replication — so an explicit ``batch > 1`` with
    a policy is a :class:`~repro.exceptions.ParameterError`.
    """
    n_frames = check_integer(n_frames, "n_frames", minimum=1)
    n_replications = check_integer(
        n_replications, "n_replications", minimum=1
    )
    lost, arrived, fields, failures = _replicate(
        _CLRTask(multiplexer, n_frames),
        _CLRBatchTask(multiplexer, n_frames),
        n_replications,
        rng,
        policy=_resolve_policy(resilience),
        backend=resolve_backend(backend, jobs),
        batch=batch,
        fingerprint=_fingerprint("clr", multiplexer, n_frames),
        label="replicated_clr",
    )
    lost = np.array(lost, dtype=float)
    arrived = np.array(arrived, dtype=float)
    _check_arrivals(arrived)
    per_rep = replicated_estimate(lost / arrived, confidence)
    return CLRReplicationSummary(
        clr=pooled_clr(lost, arrived),
        per_replication=per_rep,
        total_lost=float(lost.sum()),
        total_arrived=float(arrived.sum()),
        failures=failures,
        **fields,
    )


def _check_arrivals(arrived: np.ndarray) -> None:
    """Reject replications that offered no cells.

    ``lost / arrived`` over a zero-arrival replication yields NaN
    (with a runtime warning at best) and silently poisons the pooled
    confidence interval — surface it as a configuration error instead.
    The offending indices travel on the exception
    (``bad_replications``) so supervisors can react programmatically.
    """
    zero = np.flatnonzero(arrived <= 0)
    if zero.size:
        raise SimulationError(
            f"replication(s) {zero.tolist()} produced no arrivals; "
            "the traffic model offered zero cells, so the CLR is "
            "undefined (check the model's mean rate and n_frames)",
            bad_replications=zero.tolist(),
        )


@dataclass(frozen=True)
class CLRCurve:
    """Simulated CLR versus buffer size for one model (Figs. 8-9).

    ``degraded`` / ``n_failed`` mirror
    :class:`CLRReplicationSummary`: a resilience-supervised curve may
    pool fewer replications than requested.
    """

    label: str
    buffer_cells: np.ndarray
    delay_seconds: np.ndarray
    clr: np.ndarray
    total_arrived: float
    degraded: bool = False
    n_failed: int = 0
    n_retried: int = 0
    n_resumed: int = 0

    def log10_clr(self) -> np.ndarray:
        """log10 CLR with -inf where no loss was observed."""
        with np.errstate(divide="ignore"):
            return np.log10(self.clr)


def replicated_clr_curve(
    multiplexer: ATMMultiplexer,
    buffer_values: Sequence[float],
    n_frames: int,
    n_replications: int,
    rng: RngLike = None,
    *,
    label: str = "",
    resilience: Optional[ResiliencePolicy] = None,
    backend: Optional[Backend] = None,
    jobs: Optional[int] = None,
    batch: Optional[int] = None,
) -> CLRCurve:
    """CLR at several buffer sizes, pooled over replications.

    Each replication samples one aggregate arrival path and reuses it
    for every buffer size (common random numbers — the curve shape is
    what the paper's figures compare, and CRN removes sampling jitter
    between adjacent buffer sizes).  ``jobs=N`` / ``backend=``
    distribute replications across worker processes with bit-identical
    pooled curves (losses accumulate in replication-index order).
    ``batch`` behaves as in :func:`replicated_clr`.
    """
    n_frames = check_integer(n_frames, "n_frames", minimum=1)
    n_replications = check_integer(
        n_replications, "n_replications", minimum=1
    )
    buffers = check_nonnegative_array(buffer_values, "buffer_values")
    per_rep_lost, per_rep_arrived, fields, _ = _replicate(
        _CurveTask(multiplexer, buffers, n_frames),
        _CurveBatchTask(multiplexer, buffers, n_frames),
        n_replications,
        rng,
        policy=_resolve_policy(resilience),
        backend=resolve_backend(backend, jobs),
        batch=batch,
        fingerprint=_fingerprint(
            "clr_curve", multiplexer, n_frames, buffers=buffers
        ),
        label=label or "clr_curve",
    )
    # Accumulate in replication-index order: the float-addition order
    # is then the same on every backend and after a resume.
    lost = np.zeros(buffers.shape[0])
    arrived_total = 0.0
    for rep_lost, rep_arrived in zip(per_rep_lost, per_rep_arrived):
        lost += np.asarray(rep_lost, dtype=float)
        arrived_total += rep_arrived
    check_simulation_health(lost, arrived_total, context="clr_curve")
    if arrived_total <= 0:
        raise SimulationError(
            f"no cells arrived across {n_replications} replication(s) of "
            f"{n_frames} frames; the CLR curve is undefined "
            "(check the model's mean rate)"
        )
    return _make_curve(
        multiplexer, buffers, lost, arrived_total, label, **fields
    )


def _make_curve(
    multiplexer: ATMMultiplexer,
    buffers: np.ndarray,
    lost: np.ndarray,
    arrived_total: float,
    label: str,
    **resilience_fields: object,
) -> CLRCurve:
    capacity = multiplexer.capacity
    frame_duration = multiplexer.model.frame_duration
    return CLRCurve(
        label=label or repr(multiplexer.model),
        buffer_cells=buffers,
        delay_seconds=buffers * frame_duration / capacity,
        clr=lost / arrived_total,
        total_arrived=arrived_total,
        **resilience_fields,
    )
