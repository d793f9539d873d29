"""Tests for repro.obs.tracectx: trace identity across processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import spans as spans_mod
from repro.obs import tracectx
from repro.obs.spans import span
from repro.parallel.backends import warm_pool
from repro.parallel.worker import WorkerPayload, pool_entry


class TestTraceIdentity:
    def test_root_span_mints_a_trace(self, telemetry):
        with span("root"):
            pass
        (record,) = telemetry.records()
        assert record.trace_id is not None
        assert len(record.trace_id) == 32

    def test_children_share_the_root_trace(self, telemetry):
        with span("root"):
            with span("child"):
                with span("grandchild"):
                    pass
        records = telemetry.records()
        assert len({r.trace_id for r in records}) == 1

    def test_sibling_roots_get_distinct_traces(self, telemetry):
        with span("first"):
            pass
        with span("second"):
            pass
        first, second = telemetry.records()
        assert first.trace_id != second.trace_id

    def test_start_trace_pins_one_id_across_roots(self, telemetry):
        with tracectx.start_trace() as context:
            with span("first"):
                pass
            with span("second"):
                pass
        first, second = telemetry.records()
        assert first.trace_id == context.trace_id
        assert second.trace_id == context.trace_id
        assert tracectx.current_trace_id() is None

    def test_trace_cleared_after_owning_root_closes(self, telemetry):
        with span("root"):
            assert tracectx.current_trace_id() is not None
        assert tracectx.current_trace_id() is None


class TestContextTransport:
    def test_inject_outside_trace_is_none(self):
        assert tracectx.inject() is None
        assert tracectx.extract(None) is None

    def test_inject_extract_roundtrip(self, telemetry):
        with span("root"):
            shipped = tracectx.inject()
            context = tracectx.extract(shipped)
        assert context.trace_id == telemetry.records()[0].trace_id
        assert context.parent_span_id is not None

    def test_activate_installs_and_restores(self, telemetry):
        context = tracectx.TraceContext(trace_id="f" * 32)
        with tracectx.activate(context):
            assert tracectx.current_trace_id() == "f" * 32
            with span("inside"):
                pass
        assert tracectx.current_trace_id() is None
        (record,) = telemetry.records()
        assert record.trace_id == "f" * 32

    def test_activate_none_is_noop(self):
        with tracectx.activate(None):
            assert tracectx.current_trace_id() is None


def _traced_task(index, generator):
    with span("inner", index=index):
        pass
    return float(index + 1), 100.0


class TestWorkerPropagation:
    def test_pool_entry_adopts_shipped_trace(self, telemetry):
        payload = WorkerPayload(
            index=0,
            attempt=0,
            task=_traced_task,
            generator=np.random.default_rng(0),
            telemetry=True,
            health_check=False,
            trace={"trace_id": "a" * 32, "parent_span_id": 7},
        )
        result = pool_entry(payload)
        assert all(
            r.trace_id == "a" * 32 for r in result.span_records
        )

    def test_pool_entry_without_trace_mints_locally(self, telemetry):
        payload = WorkerPayload(
            index=0,
            attempt=0,
            task=_traced_task,
            generator=np.random.default_rng(0),
            telemetry=True,
            health_check=False,
        )
        result = pool_entry(payload)
        assert all(r.trace_id is not None for r in result.span_records)

    @pytest.mark.slow
    def test_process_pool_spans_carry_parent_trace(self, telemetry):
        backend = warm_pool(2)
        with span("supervisor"):
            with backend.session() as session:
                for i in range(3):
                    session.submit(
                        WorkerPayload(
                            index=i,
                            attempt=0,
                            task=_traced_task,
                            generator=np.random.default_rng(i),
                            telemetry=True,
                            health_check=False,
                        )
                    )
                results = []
                while session.pending:
                    result = session.next_completed()
                    results.append(result)
                    spans_mod.ingest(tuple(result.span_records))
        records = telemetry.records()
        supervisor = next(r for r in records if r.name == "supervisor")
        assert supervisor.trace_id is not None
        # Every worker span — replication wrapper and inner — carries
        # the supervising trace id, and the merged forest re-parents
        # worker roots under the supervisor.
        workers = [r for r in records if r is not supervisor]
        assert len(workers) == 6  # 3 x (replication + inner)
        assert {r.trace_id for r in workers} == {supervisor.trace_id}
        replication_spans = [
            r for r in workers if r.name == "replication"
        ]
        assert all(
            r.parent_id == supervisor.span_id for r in replication_spans
        )
