"""The chaos suite: injected service faults vs the recovery contract.

Each test drives the full replay stack — engine, journal, supervisor,
overload policy — through a deterministic :class:`ServiceFaultPlan`
and asserts the ISSUE's acceptance property: the recovered run's
canonical summary is **byte-identical** to a fault-free run, with
zero boundary violations.  Table-fault chaos is the deliberate
exception (the breaker changes decisions, conservatively); there the
assertions are conservation + flagged fallbacks instead.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.atm.qos import QoSRequirement
from repro.exceptions import JournalError, ParameterError
from repro.models import make_s
from repro.parallel.backends import WarmPoolBackend
from repro.resilience.faults import ServiceFaultPlan
from repro.service.overload import OverloadPolicy
from repro.service.replay import replay_link, replay_workload
from repro.service.stats import summary_to_json
from repro.service.supervision import SupervisionPolicy
from repro.service.workload import ConnectionClass, WorkloadSpec

CAPACITY = 30 * 538.0
N_REQUESTS = 4_000
#: How long an injected hang sleeps: far past the shard budget, so a
#: run that returns well before it did not wait for the hung worker.
HANG_SECONDS = 30.0


@pytest.fixture
def pool():
    backend = WarmPoolBackend(2, start_method="fork")
    try:
        yield backend
    finally:
        backend.shutdown()


@pytest.fixture
def qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


@pytest.fixture
def classes():
    return (ConnectionClass("dar1", make_s(1, 0.975)),)


@pytest.fixture
def spec():
    return WorkloadSpec(
        n_requests=N_REQUESTS, arrival_rate=0.4, mean_holding_time=90.0
    )


def run(spec, classes, qos, **kwargs):
    return replay_workload(
        spec,
        classes,
        n_links=2,
        capacity=CAPACITY,
        qos=qos,
        policy="bahadur-rao",
        rng=42,
        **kwargs,
    )


class TestServiceFaultPlan:
    def test_cues_addressed_by_link_and_attempt(self):
        plan = ServiceFaultPlan(
            crash_shard_at={(0, 0): 100},
            hang_shard_at={(1, 0): (50, 2.0)},
            torn_write_at={(1, 1): 70},
            table_corrupt_at={(0, 1): {5, 9}},
        )
        assert plan.shard_cues(0, 0).crash_request == 100
        assert plan.shard_cues(1, 0).hang == (50, 2.0)
        assert plan.shard_cues(1, 1).torn_event == 70
        assert plan.shard_cues(0, 1).table_faults == frozenset({5, 9})
        assert plan.shard_cues(3, 0).empty

    def test_faults_without_supervision_rejected(self, spec, classes, qos):
        with pytest.raises(ParameterError, match="supervision"):
            run(
                spec,
                classes,
                qos,
                faults=ServiceFaultPlan(crash_shard_at={(0, 0): 10}),
            )


class TestCrashRecovery:
    def test_midrun_crash_recovers_byte_identical(
        self, spec, classes, qos, tmp_path
    ):
        clean = run(spec, classes, qos)
        chaotic = run(
            spec,
            classes,
            qos,
            journal_dir=tmp_path,
            supervision=SupervisionPolicy(max_restarts=1),
            faults=ServiceFaultPlan(crash_shard_at={(0, 0): 2_500}),
        )
        assert summary_to_json(chaotic) == summary_to_json(clean)
        assert chaotic.boundary_violations == 0
        # Both the dead and the recovered epoch left their journals.
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "link-0.a0.jsonl" in names
        assert "link-0.a1.jsonl" in names

    def test_crash_before_first_snapshot(self, spec, classes, qos, tmp_path):
        # Recovery with events only (no snapshot yet): the suffix is
        # re-applied from request zero.
        clean = run(spec, classes, qos)
        chaotic = run(
            spec,
            classes,
            qos,
            journal_dir=tmp_path,
            snapshot_every=10_000,  # never reached
            supervision=SupervisionPolicy(max_restarts=1),
            faults=ServiceFaultPlan(crash_shard_at={(1, 0): 1_200}),
        )
        assert summary_to_json(chaotic) == summary_to_json(clean)

    def test_double_crash_recovers_across_epochs(
        self, spec, classes, qos, tmp_path
    ):
        clean = run(spec, classes, qos)
        chaotic = run(
            spec,
            classes,
            qos,
            journal_dir=tmp_path,
            supervision=SupervisionPolicy(max_restarts=2),
            faults=ServiceFaultPlan(
                crash_shard_at={(0, 0): 1_500, (0, 1): 3_000}
            ),
        )
        assert summary_to_json(chaotic) == summary_to_json(clean)

    def test_crash_without_journal_still_restarts_clean(
        self, spec, classes, qos
    ):
        # No journal: the restarted attempt simply replays from the
        # start on a pristine stream — slower, still byte-identical.
        clean = run(spec, classes, qos)
        chaotic = run(
            spec,
            classes,
            qos,
            supervision=SupervisionPolicy(max_restarts=1),
            faults=ServiceFaultPlan(crash_shard_at={(0, 0): 2_000}),
        )
        assert summary_to_json(chaotic) == summary_to_json(clean)


class TestTornWriteRecovery:
    def test_torn_tail_recovered_and_counted(
        self, spec, classes, qos, tmp_path
    ):
        clean = run(spec, classes, qos)
        obs.enable()
        try:
            obs.reset()
            chaotic = run(
                spec,
                classes,
                qos,
                journal_dir=tmp_path,
                supervision=SupervisionPolicy(max_restarts=1),
                faults=ServiceFaultPlan(torn_write_at={(0, 0): 2_300}),
            )
            counters = {
                d["name"]: d["value"]
                for d in obs.metrics.snapshot()
                if d.get("type") == "counter"
            }
        finally:
            obs.disable()
        assert summary_to_json(chaotic) == summary_to_json(clean)
        assert counters.get("service.journal.torn_tail_recovered") == 1
        assert counters.get("service.shard_restarts") == 1
        assert counters.get("service.boundary_violations") == 0


class TestForeignJournalRefused:
    def test_divergent_workload_journal_raises(self, classes, qos, tmp_path):
        spec_a = WorkloadSpec(
            n_requests=2_000, arrival_rate=0.4, mean_holding_time=90.0
        )
        # Crash once to leave an attempt-0 journal behind.
        run(
            spec_a,
            classes,
            qos,
            journal_dir=tmp_path,
            supervision=SupervisionPolicy(max_restarts=1),
            faults=ServiceFaultPlan(crash_shard_at={(0, 0): 1_000}),
        )
        # A different workload must refuse that journal: fingerprints
        # differ, so recovery loads nothing (fresh run) rather than
        # replaying a foreign event stream.
        spec_b = WorkloadSpec(
            n_requests=2_000, arrival_rate=0.5, mean_holding_time=90.0
        )
        clean = run(spec_b, classes, qos)
        rerun = run(
            spec_b,
            classes,
            qos,
            journal_dir=tmp_path,
            supervision=SupervisionPolicy(max_restarts=1),
            faults=ServiceFaultPlan(crash_shard_at={(0, 0): 1_000}),
        )
        assert summary_to_json(rerun) == summary_to_json(clean)

    def test_journaled_outcome_mismatch_is_typed(self, tmp_path):
        # Hand-craft a journal whose events can't match the workload:
        # replay_link must raise JournalError, not silently diverge.
        from repro.service.journal import LinkJournal, journal_path
        from repro.service.replay import _journal_fingerprint
        from repro.utils.replication_context import replication_attempt

        spec = WorkloadSpec(
            n_requests=50, arrival_rate=0.4, mean_holding_time=90.0
        )
        classes = (ConnectionClass("dar1", make_s(1, 0.975)),)
        qos = QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)
        fingerprint = _journal_fingerprint(
            spec,
            classes,
            capacity=CAPACITY,
            qos=qos,
            policy="bahadur-rao",
            link_index=0,
        )
        prefix = tmp_path / "link-0"
        with LinkJournal(journal_path(prefix, 0), fingerprint) as journal:
            # The first request always admits on an empty link, so a
            # journaled "blocked" is provably foreign.
            journal.event(0, "b")
        with replication_attempt(0, 1):
            with pytest.raises(JournalError, match="disagrees"):
                replay_link(
                    spec,
                    classes,
                    capacity=CAPACITY,
                    qos=qos,
                    policy="bahadur-rao",
                    rng=np.random.default_rng(42),
                    journal_prefix=prefix,
                )


class TestTableFaultChaos:
    def test_table_fault_falls_back_without_violations(
        self, spec, classes, qos, tmp_path
    ):
        chaotic = run(
            spec,
            classes,
            qos,
            journal_dir=tmp_path,
            supervision=SupervisionPolicy(max_restarts=1),
            overload=OverloadPolicy(breaker_cooldown=16),
            faults=ServiceFaultPlan(table_corrupt_at={(0, 0): {500}}),
        )
        assert chaotic.fallbacks > 0
        assert chaotic.boundary_violations == 0
        assert (
            chaotic.admitted + chaotic.blocked + chaotic.shed
            == chaotic.n_requests
        )
        # Fallback decisions are conservative: only link 0 is touched.
        assert chaotic.links[1].fallbacks == 0

    def test_overload_sheds_deterministically(self, spec, classes, qos):
        policy = OverloadPolicy(max_queue_depth=4, decision_seconds=1.0)
        first = run(spec, classes, qos, overload=policy)
        second = run(spec, classes, qos, overload=policy)
        assert first.shed > 0
        assert summary_to_json(first) == summary_to_json(second)
        assert (
            first.admitted + first.blocked + first.shed == first.n_requests
        )
        assert first.boundary_violations == 0


def _warmed_table(tmp_path, classes, qos):
    """A persisted decision-table file, as the service CLI seeds it."""
    from repro.service.tables import DecisionTableCache

    path = tmp_path / "tables.jsonl"
    tables = DecisionTableCache(path=path)
    tables.lookup(classes[0].model, CAPACITY, qos, "bahadur-rao")
    assert path.exists()
    return path


class TestTableFileOnPool:
    """A table file's text reaches pooled shards in their payloads and
    loads exactly as the file does — on a clean replay, when shards
    crash, and when the supervisor fences a hung worker out of a warm
    pool."""

    def test_table_text_matches_file_load(
        self, spec, classes, qos, tmp_path, pool
    ):
        table = _warmed_table(tmp_path, classes, qos)
        serial = run(spec, classes, qos, table_path=table)
        pooled = run(
            spec,
            classes,
            qos,
            table_path=table,
            backend=pool,
        )
        assert summary_to_json(pooled) == summary_to_json(serial)
        assert pooled.cache_hits > 0

    def test_crash_chaos_with_table_file(
        self, spec, classes, qos, tmp_path, pool
    ):
        table = _warmed_table(tmp_path, classes, qos)
        clean = run(spec, classes, qos, table_path=table)
        chaotic = run(
            spec,
            classes,
            qos,
            table_path=table,
            backend=pool,
            journal_dir=tmp_path / "journals",
            supervision=SupervisionPolicy(max_restarts=1),
            faults=ServiceFaultPlan(crash_shard_at={(0, 0): 2_100}),
        )
        assert summary_to_json(chaotic) == summary_to_json(clean)

    def test_hang_fence_recycles_warm_pool(
        self, spec, classes, qos, tmp_path, pool
    ):
        table = _warmed_table(tmp_path, classes, qos)
        clean = run(spec, classes, qos, table_path=table)
        obs.enable()
        try:
            obs.reset()
            started = time.monotonic()
            chaotic = run(
                spec,
                classes,
                qos,
                table_path=table,
                backend=pool,
                journal_dir=tmp_path / "journals",
                supervision=SupervisionPolicy(
                    max_restarts=1,
                    shard_timeout_seconds=1.0,
                    heartbeat_seconds=0.1,
                ),
                faults=ServiceFaultPlan(
                    hang_shard_at={(1, 0): (1_800, HANG_SECONDS)}
                ),
            )
            elapsed = time.monotonic() - started
            counters = {
                d["name"]: d["value"]
                for d in obs.metrics.snapshot()
                if d.get("type") == "counter"
            }
        finally:
            obs.disable()
        assert summary_to_json(chaotic) == summary_to_json(clean)
        assert elapsed < HANG_SECONDS / 3
        # The fenced hang forced the warm pool to replace its workers;
        # the hung process must not survive in a slot.
        assert counters.get("service.pool_recycled") == 1


class TestParallelChaosParity:
    def test_jobs2_chaos_matches_serial_clean(
        self, spec, classes, qos, tmp_path, pool
    ):
        clean = run(spec, classes, qos)
        chaotic = run(
            spec,
            classes,
            qos,
            backend=pool,
            journal_dir=tmp_path,
            supervision=SupervisionPolicy(max_restarts=1),
            faults=ServiceFaultPlan(
                crash_shard_at={(0, 0): 2_100},
                torn_write_at={(1, 0): 1_400},
            ),
        )
        assert summary_to_json(chaotic) == summary_to_json(clean)
        assert chaotic.boundary_violations == 0

    def test_hang_chaos_matches_clean(
        self, spec, classes, qos, tmp_path, pool
    ):
        clean = run(spec, classes, qos)
        started = time.monotonic()
        chaotic = run(
            spec,
            classes,
            qos,
            backend=pool,
            journal_dir=tmp_path,
            supervision=SupervisionPolicy(
                max_restarts=1,
                shard_timeout_seconds=1.0,
                heartbeat_seconds=0.1,
            ),
            faults=ServiceFaultPlan(
                hang_shard_at={(1, 0): (1_800, HANG_SECONDS)}
            ),
        )
        assert time.monotonic() - started < HANG_SECONDS / 3
        assert summary_to_json(chaotic) == summary_to_json(clean)
