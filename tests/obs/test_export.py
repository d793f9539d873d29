"""Tests for repro.obs.export: JSONL round trip and human summary."""

from __future__ import annotations

import json

from repro.obs import export, metrics
from repro.obs.spans import span


class TestJsonlRoundTrip:
    def test_round_trip(self, telemetry, tmp_path):
        with span("outer", experiment="fig08"):
            with span("inner", rep=0):
                pass
        metrics.add("frames_simulated", 2000)
        metrics.set_gauge("utilization", 0.87)
        metrics.observe_sketch_many("busy_period_frames", [1, 4, 4, 33])

        path = export.write_jsonl(tmp_path / "trace.jsonl", label="unit")
        dump = export.read_jsonl(path)

        assert dump.meta["schema"] == export.SCHEMA_VERSION
        assert dump.meta["label"] == "unit"
        by_name = {r.name: r for r in dump.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].attrs == {"experiment": "fig08"}
        assert by_name["inner"].duration_ns > 0
        assert dump.counters == {"frames_simulated": 2000}
        assert dump.gauges == {"utilization": 0.87}
        busy = dump.sketches["busy_period_frames"]
        assert busy["count"] == 4
        assert (busy["min"], busy["max"]) == (1.0, 33.0)

    def test_every_line_is_valid_json(self, telemetry, tmp_path):
        with span("a"):
            pass
        metrics.add("c", 1)
        path = export.write_jsonl(tmp_path / "t.jsonl")
        lines = path.read_text().strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["type"] == "meta"
        assert {obj["type"] for obj in parsed} == {"meta", "span", "counter"}

    def test_creates_parent_directories(self, telemetry, tmp_path):
        path = export.write_jsonl(tmp_path / "deep" / "dir" / "t.jsonl")
        assert path.exists()

    def test_empty_trace_round_trips(self, tmp_path):
        path = export.write_jsonl(
            tmp_path / "empty.jsonl", span_records=(), metric_dicts=()
        )
        dump = export.read_jsonl(path)
        assert dump.spans == [] and dump.counters == {}


class TestFormatSummary:
    def test_tree_indentation_and_aggregation(self, telemetry):
        for rep in range(3):
            with span("experiment.fig08"):
                with span("replication", rep=rep):
                    pass
        text = export.format_summary()
        lines = text.splitlines()
        exp_line = next(l for l in lines if "experiment.fig08" in l)
        rep_line = next(l for l in lines if "replication" in l)
        assert "3" in exp_line  # three calls aggregated on one row
        assert rep_line.startswith("  ")  # child is indented

    def test_metrics_section(self, telemetry):
        with span("s"):
            pass
        metrics.add("cells_lost", 123)
        metrics.observe_sketch("busy_period_frames", 7)
        text = export.format_summary()
        assert "cells_lost" in text
        assert "123" in text
        assert "busy_period_frames" in text

    def test_no_spans_message(self):
        text = export.format_summary(span_records=(), metric_dicts=())
        assert "no spans" in text
