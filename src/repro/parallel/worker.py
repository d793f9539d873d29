"""The unit of work a backend ships to a worker, and its execution.

A :class:`WorkerPayload` is one attempt of a replication or a shard:
the picklable task object, its own RNG stream, and flags describing
what the worker must do around it (telemetry capture, the engine's
health checks); a :class:`WorkerBatchPayload` is a block of
replications.  A :class:`WorkerResult` carries whatever the task
returned: a replication's ``(lost, arrived)`` pair, which the
replication paths normalise with :func:`replication_pair`, or a
shard's own result object (``LinkStats``, ``ShardDriveStats``,
``AdaptiveLinkStats``).
:func:`execute` runs either *in the current process* — the serial
backend calls it directly, so inline execution writes spans and
metrics straight into the ambient collectors.  :func:`pool_entry` is
the function a process pool actually executes: it configures
process-local telemetry to mirror the parent's, runs the payload
through :func:`execute`, and captures the spans/metrics the attempt
produced so the parent can merge them into its exporter.

Failure transport is structured rather than exception-propagating:
the worker catches every :class:`Exception`, classifies it against
:data:`repro.exceptions.RETRYABLE_EXCEPTIONS`, and returns it inside
the :class:`WorkerResult` together with the post-run generator state
(the original object in-process; :func:`pool_entry` swaps an
unpicklable one for a stand-in before it crosses a process).
The supervisor needs all three — the classification to decide on a
retry, the exception to re-raise non-retryable bugs untouched, and
the generator so that retry streams spawned from a caller-supplied
``Generator`` (no seed identity) derive from exactly the state a
serial run would have left behind.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.exceptions import RETRYABLE_EXCEPTIONS, SimulationError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.obs import tracectx as _tracectx
from repro.obs.spans import span
from repro.utils.replication_context import replication_attempt
from repro.utils.validation import check_simulation_health

__all__ = [
    "WorkerBatchPayload",
    "WorkerBatchResult",
    "WorkerPayload",
    "WorkerResult",
    "execute",
    "execute_batch_payload",
    "execute_payload",
    "merge_result_telemetry",
    "pool_entry",
    "replication_pair",
]

#: A replication body, ``(index, generator) -> (lost, arrived)``, or a
#: shard body returning its own result object.
PayloadTask = Callable[[int, np.random.Generator], object]

#: A batched body: ``(indices, generators) -> [(lost, arrived), ...]``,
#: one pair per replication, in replication order.
BatchTask = Callable[
    [Tuple[int, ...], Tuple[np.random.Generator, ...]],
    Tuple[Tuple[Union[float, np.ndarray], float], ...],
]


@dataclass(frozen=True)
class WorkerPayload:
    """One replication or shard attempt, ready to ship to any backend.

    Everything here must pickle under the ``spawn`` start method:
    ``task`` should be a module-level callable or instance of a
    module-level class (closures are rejected by pickle).
    """

    index: int
    attempt: int
    task: PayloadTask
    generator: np.random.Generator
    label: str = ""
    telemetry: bool = False
    #: The task returns a replication's ``(lost, arrived)`` pair, which
    #: must be numerically healthy and non-empty.
    health_check: bool = True
    #: Serialized trace context (``tracectx.inject()``) captured at
    #: submit time, so worker spans join the supervisor's trace.
    trace: Optional[dict] = None


@dataclass(frozen=True)
class WorkerResult:
    """What came back: a result or a classified, transportable failure."""

    index: int
    attempt: int
    #: What the task returned.
    value: object = None
    error: Optional[BaseException] = None
    error_kind: str = ""
    error_message: str = ""
    retryable: bool = False
    #: Post-run stream state; lets the supervisor reproduce serial
    #: retry derivation when streams have no seed identity.
    generator: Optional[np.random.Generator] = None
    span_records: Tuple = ()
    metric_dicts: Tuple[dict, ...] = field(default_factory=tuple)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class WorkerBatchPayload:
    """A contiguous block of replication attempts shipped as one task.

    Batching is how task count scales with cores instead of with the
    replication count: one pickle + one IPC round trip covers
    ``len(generators)`` replications, and the task can evaluate them
    through a single 2-D kernel pass (see
    :func:`repro.queueing.workload.simulate_finite_buffer_batch`).
    Replication ``base_index + i`` runs on ``generators[i]`` — its own
    per-replication stream, exactly the one an unbatched payload would
    carry — so seeding and results stay bit-identical to unbatched
    execution.
    """

    base_index: int
    attempt: int
    task: BatchTask
    generators: Tuple[np.random.Generator, ...]
    label: str = ""
    telemetry: bool = False
    health_check: bool = True
    trace: Optional[dict] = None

    @property
    def index(self) -> int:
        """Ordering key for sessions (lowest replication in the block)."""
        return self.base_index


@dataclass(frozen=True)
class WorkerBatchResult:
    """One finished block: per-replication results, or a block failure.

    Blocks run fail-fast internally — any exception (or failed health
    check) fails the whole block, because the batched kernel offers no
    per-replication retry granularity.  Callers needing retries use
    unbatched payloads (the resilience engine always does).
    """

    base_index: int
    attempt: int
    results: Tuple[WorkerResult, ...] = ()
    error: Optional[BaseException] = None
    error_kind: str = ""
    error_message: str = ""
    retryable: bool = False
    span_records: Tuple = ()
    metric_dicts: Tuple[dict, ...] = field(default_factory=tuple)

    @property
    def index(self) -> int:
        return self.base_index

    @property
    def failed(self) -> bool:
        return self.error is not None


def _transportable(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def replication_pair(value) -> Tuple[Union[float, np.ndarray], float]:
    """A replication's ``(lost, arrived)`` as floats (``lost`` may be
    a per-buffer vector)."""
    lost, arrived = value
    lost = float(lost) if np.ndim(lost) == 0 else np.asarray(lost, dtype=float)
    return lost, float(arrived)


def _check_replication(value, index: int) -> None:
    """Reject a numerically unhealthy or empty replication."""
    lost, arrived = value
    arrived = float(arrived)
    check_simulation_health(lost, arrived, context=f"replication {index}")
    if arrived <= 0:
        raise SimulationError(
            f"replication {index} offered no cells; "
            "its CLR contribution is undefined",
            bad_replications=(index,),
        )


def execute_payload(payload: WorkerPayload) -> WorkerResult:
    """Run one payload in the current process.

    Mirrors the resilience engine's per-attempt discipline exactly:
    the task runs under a ``replication`` span with the attempt
    published to :mod:`repro.utils.replication_context`, then (when
    ``health_check``) the result must be numerically healthy and
    non-empty.  Any :class:`Exception` is returned, classified, inside
    the result — never raised — so completion order can be decoupled
    from error handling.
    """
    generator = payload.generator
    try:
        with replication_attempt(payload.index, payload.attempt):
            with span(
                "replication",
                index=payload.index,
                attempt=payload.attempt,
                label=payload.label,
            ):
                value = payload.task(payload.index, generator)
            if payload.health_check:
                _check_replication(value, payload.index)
    except Exception as exc:
        return WorkerResult(
            index=payload.index,
            attempt=payload.attempt,
            error=exc,
            error_kind=type(exc).__name__,
            error_message=str(exc),
            retryable=isinstance(exc, RETRYABLE_EXCEPTIONS),
            generator=generator,
        )
    return WorkerResult(
        index=payload.index,
        attempt=payload.attempt,
        value=value,
        generator=generator,
    )


def execute_batch_payload(payload: WorkerBatchPayload) -> WorkerBatchResult:
    """Run one block of replications in the current process.

    The task is invoked once with the block's indices and generators
    and must return one ``(lost, arrived)`` pair per replication, in
    order.  Health checks run per replication, so error messages carry
    the true replication index.
    """
    indices = tuple(
        range(
            payload.base_index,
            payload.base_index + len(payload.generators),
        )
    )
    try:
        with span(
            "replication_batch",
            base_index=payload.base_index,
            size=len(indices),
            attempt=payload.attempt,
            label=payload.label,
        ):
            rows = payload.task(indices, payload.generators)
        rows = tuple(rows)
        if len(rows) != len(indices):
            raise SimulationError(
                f"batch task returned {len(rows)} result(s) for "
                f"{len(indices)} replication(s)"
            )
        if payload.health_check:
            for index, row in zip(indices, rows):
                _check_replication(row, index)
        results = tuple(
            WorkerResult(index=index, attempt=payload.attempt, value=row)
            for index, row in zip(indices, rows)
        )
    except Exception as exc:
        return WorkerBatchResult(
            base_index=payload.base_index,
            attempt=payload.attempt,
            error=exc,
            error_kind=type(exc).__name__,
            error_message=str(exc),
            retryable=isinstance(exc, RETRYABLE_EXCEPTIONS),
        )
    return WorkerBatchResult(
        base_index=payload.base_index,
        attempt=payload.attempt,
        results=results,
    )


def execute(payload):
    """Run a single or batched payload in the current process."""
    if isinstance(payload, WorkerBatchPayload):
        return execute_batch_payload(payload)
    return execute_payload(payload)


def pool_entry(payload):
    """Process-pool entry point: telemetry bracketing around execution.

    Worker processes are reused across payloads, so the process-local
    collectors are reset per payload; whatever the attempt (or block)
    recorded is captured onto the result for the parent to merge.
    Telemetry is enabled in the worker exactly when the parent had it
    enabled at submit time (``payload.telemetry``).  The result is
    about to cross a process, so an error that cannot be pickled is
    replaced by a :class:`RuntimeError` stand-in here — in-process
    execution keeps the original exception object.
    """
    if payload.telemetry:
        _spans.enable()
        _spans.reset_spans()
        _metrics.reset_metrics()
        with _tracectx.activate(_tracectx.extract(payload.trace)):
            result = execute(payload)
        result = replace(
            result,
            span_records=_spans.records(),
            metric_dicts=tuple(_metrics.snapshot()),
        )
    else:
        _spans.disable()
        result = execute(payload)
    if result.error is not None:
        result = replace(result, error=_transportable(result.error))
    return result


def merge_result_telemetry(result: WorkerResult) -> None:
    """Fold a worker's captured spans/metrics into this process.

    Inline (serial-backend) results carry no captured telemetry —
    their spans already landed in the ambient collectors — so this is
    a no-op for them, and for any result while telemetry is disabled.
    """
    if not _spans.is_enabled():
        return
    if result.span_records:
        _spans.ingest(tuple(result.span_records))
    if result.metric_dicts:
        _metrics.merge_snapshot(result.metric_dicts)
