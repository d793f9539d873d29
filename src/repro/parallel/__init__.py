"""Execution backends: run replications serially or across processes.

The package is deliberately below :mod:`repro.resilience` in the
layering — backends know how to *run payloads*, not what a retry or a
checkpoint is.  Every fan-out (the fail-fast loops of
:mod:`repro.queueing.replication`, the resilience engine, the shard
supervisor) runs on the one loop of :mod:`repro.parallel.dispatch`
and keeps only its own policy.

Three process-lifetime disciplines:

* :class:`SerialBackend` — inline, deterministic, no pickling; what
  every call given no backend runs on;
* :class:`ProcessPoolBackend` — fresh spawn workers per session
  (maximum isolation, pays the spawn tax every call);
* :class:`WarmPoolBackend` / :func:`warm_pool` — persistent workers
  shared across sessions and callers, the default for ``jobs > 1``.

Large read-only blobs (decision-table images) cross the process
boundary through :mod:`repro.parallel.shm`
(``multiprocessing.shared_memory`` descriptors) instead of pickles.
"""

from repro.parallel.backends import (
    Backend,
    BackendSession,
    ProcessPoolBackend,
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
from repro.parallel.shm import (
    SharedBlob,
    attach_blob,
    owned_segments,
    publish_blob,
    unlink_owned,
)
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
    "ProcessPoolBackend",
    "SerialBackend",
    "SharedBlob",
    "WarmPoolBackend",
    "WorkerBatchPayload",
    "WorkerBatchResult",
    "WorkerPayload",
    "WorkerResult",
    "attach_blob",
    "dispatch",
    "execute",
    "execute_batch_payload",
    "execute_payload",
    "get_default_backend",
    "merge_result_telemetry",
    "owned_segments",
    "pool_entry",
    "publish_blob",
    "replication_pair",
    "resolve_backend",
    "set_default_backend",
    "shutdown_warm_pools",
    "unlink_owned",
    "use_backend",
    "warm_pool",
]
