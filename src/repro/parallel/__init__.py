"""Execution backends: run replications serially or across processes.

The package is deliberately below :mod:`repro.resilience` in the
layering — backends know how to *run payloads*, not what a retry or a
checkpoint is.  Every fan-out (the fail-fast loops of
:mod:`repro.queueing.replication`, the resilience engine, the shard
supervisor) runs on the one loop of :mod:`repro.parallel.dispatch`
and keeps only its own policy.

Two backends:

* :class:`SerialBackend` — inline, deterministic, no pickling; what
  every call given no backend runs on;
* :class:`WarmPoolBackend` / :func:`warm_pool` — the one process
  pool: persistent workers shared across sessions and callers, what
  ``jobs > 1`` runs on.  They start lazily or on ``warm()``, live
  until ``shutdown()`` or interpreter exit, are replaced by
  ``recycle()`` after a fenced hang and respawned by the next submit
  after a worker dies.  A dead worker fails the attempts it took down
  with it, as failed results; it never escapes a session.

What a task needs travels in its payload, pickled on the pool; that
includes the service's decision tables, as JSONL text of a few
hundred bytes a decision.
"""

from repro.parallel.backends import (
    Backend,
    BackendSession,
    SerialBackend,
    WarmPoolBackend,
    get_default_backend,
    resolve_backend,
    set_default_backend,
    shutdown_warm_pools,
    use_backend,
    warm_pool,
)
from repro.parallel.dispatch import Hang, dispatch
from repro.parallel.worker import (
    WorkerBatchPayload,
    WorkerBatchResult,
    WorkerPayload,
    WorkerResult,
    execute,
    execute_batch_payload,
    execute_payload,
    merge_result_telemetry,
    pool_entry,
    replication_pair,
)

__all__ = [
    "Backend",
    "BackendSession",
    "Hang",
    "SerialBackend",
    "WarmPoolBackend",
    "WorkerBatchPayload",
    "WorkerBatchResult",
    "WorkerPayload",
    "WorkerResult",
    "dispatch",
    "execute",
    "execute_batch_payload",
    "execute_payload",
    "get_default_backend",
    "merge_result_telemetry",
    "pool_entry",
    "replication_pair",
    "resolve_backend",
    "set_default_backend",
    "shutdown_warm_pools",
    "use_backend",
    "warm_pool",
]
