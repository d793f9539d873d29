"""repro.service — the online connection-admission-control service.

The paper's motivating application, made operational: where
:mod:`repro.atm.cac` computes one-shot offline capacity numbers, this
package *serves* admit/release decisions at workload scale and measures
that the served boundary matches the offline one.

* :mod:`repro.service.tables`   — memoized admissible-N decision
  tables: one offline inversion per distinct (model, capacity, QoS,
  policy), then O(1) LRU lookups, with optional JSONL persistence;
  shards load their private caches from the JSONL text their payloads
  carry (``load_table``);
* :mod:`repro.service.engine`   — :class:`AdmissionEngine`: per-link
  admitted-mix state with ``admit()``/``release()`` for homogeneous
  (count) and heterogeneous (effective-bandwidth) policies;
* :mod:`repro.service.workload` — reproducible Poisson connection
  workloads with exponential or heavy-tailed holding times;
* :mod:`repro.service.kernel`   — :class:`LinkLane`: one link's replay
  state and the per-request decision step every replay path shares;
* :mod:`repro.service.replay`   — the replay driver: streams millions
  of requests through per-link engines, shards links across the
  :mod:`repro.parallel` backends (bit-identical to serial), and
  reports blocking, utilization, and cache effectiveness;
* :mod:`repro.service.stats`    — report formatting and canonical
  JSON serialization;
* :mod:`repro.service.journal`  — append-only checksummed decision
  journals with periodic state snapshots; a restarted shard recovers
  its exact link state from them;
* :mod:`repro.service.supervision` — the one fan-out contract: run
  ``(task, stream)`` shard pairs in this process or on a pool, on the
  shared loop of :mod:`repro.parallel.dispatch`, each attempt on a
  fresh copy of its stream, restarting crashed/hung shards with
  per-shard deadlines, heartbeats, and bounded retry;
* :mod:`repro.service.overload` — bounded admission queue, circuit
  breaker, and conservative peak-rate fallback under overload;
* :mod:`repro.service.frontend` — the sharded admission frontend:
  consistent-hash link placement, one decision-table snapshot text
  every shard loads, an in-process API, and an asyncio line-JSON
  server;
* :mod:`repro.service.drive`    — the open-loop rho-driven load
  generator: derive lambda from rho and the admissible boundary,
  sweep rho toward 1, report p50/p99/p999 admit latency per point;
* :mod:`repro.service.cli`      — the ``workload`` command-line verb
  (also reachable as ``python -m repro.experiments.runner workload``)
  and the shared argument layer: the flags the service verbs share,
  declared once, and the builders for what they configure;
* :mod:`repro.service.frontend_cli` — the ``serve`` and ``drive``
  runner verbs built on the two modules above.

See ``docs/SERVICE.md`` for the architecture and determinism
contract, and ``docs/ROBUSTNESS.md`` for the service fault model and
recovery runbook.
"""

from repro.service.drive import (
    DrivePoint,
    DriveReport,
    ShardDriveStats,
    derive_arrival_rate,
    drive,
)
from repro.service.engine import AdmissionDecision, AdmissionEngine, LinkState
from repro.service.frontend import (
    AdmissionFrontend,
    ConsistentHashRing,
    FrontendServer,
    FrontendStats,
    build_table_snapshot,
)
from repro.service.journal import (
    JournalRecovery,
    LinkJournal,
    find_recovery,
    journal_path,
    load_journal,
)
from repro.service.kernel import LinkLane
from repro.service.overload import (
    AdmissionQueue,
    CircuitBreaker,
    OverloadPolicy,
    OverloadState,
)
from repro.service.replay import (
    LinkStats,
    ReplaySummary,
    replay_link,
    replay_workload,
)
from repro.service.stats import (
    format_summary,
    summary_to_dict,
    summary_to_json,
    write_summary,
)
from repro.service.supervision import (
    FAIL_FAST,
    ShardReport,
    ShardSupervisor,
    SupervisionPolicy,
)
from repro.service.tables import (
    CAC_METHODS,
    Decision,
    DecisionTableCache,
    EFFECTIVE_BANDWIDTH_METHOD,
    SERVICE_METHODS,
    decision_key,
    model_fingerprint,
)
from repro.service.workload import (
    ConnectionClass,
    HOLDING_LAWS,
    Workload,
    WorkloadSpec,
    generate_workload,
    holding_time_distribution,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionEngine",
    "AdmissionFrontend",
    "AdmissionQueue",
    "CAC_METHODS",
    "CircuitBreaker",
    "ConnectionClass",
    "ConsistentHashRing",
    "Decision",
    "DecisionTableCache",
    "DrivePoint",
    "DriveReport",
    "EFFECTIVE_BANDWIDTH_METHOD",
    "FAIL_FAST",
    "FrontendServer",
    "FrontendStats",
    "HOLDING_LAWS",
    "JournalRecovery",
    "LinkJournal",
    "LinkLane",
    "LinkState",
    "LinkStats",
    "OverloadPolicy",
    "OverloadState",
    "ReplaySummary",
    "SERVICE_METHODS",
    "ShardDriveStats",
    "ShardReport",
    "ShardSupervisor",
    "SupervisionPolicy",
    "Workload",
    "WorkloadSpec",
    "build_table_snapshot",
    "decision_key",
    "derive_arrival_rate",
    "drive",
    "find_recovery",
    "format_summary",
    "generate_workload",
    "holding_time_distribution",
    "journal_path",
    "load_journal",
    "model_fingerprint",
    "replay_link",
    "replay_workload",
    "summary_to_dict",
    "summary_to_json",
    "write_summary",
]
