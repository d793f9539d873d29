"""Tests for repro.obs.timings: schema, loading, regression gates."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.exceptions import ParameterError
from repro.obs.timings import (
    TIMINGS_SCHEMA,
    append_timing_row,
    compare_timings,
    environment_fields,
    jobs_scaling_regressions,
    latest_by_key,
    load_timings,
    percentiles_from_rounds,
)

COMMITTED_TIMINGS = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "results"
    / "timings.jsonl"
)


def write_rows(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestSchema:
    def test_append_stamps_provenance(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_timing_row(path, {"experiment": "x", "mean_s": 1.0})
        (row,) = load_timings(path)
        assert row.schema == TIMINGS_SCHEMA
        assert row.timestamp_unix is not None
        # git SHA and hostname are best-effort but present in a git
        # checkout on a normal host.
        assert row.git_sha
        assert row.hostname

    def test_caller_fields_override_the_stamp(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_timing_row(
            path,
            {"experiment": "x", "mean_s": 1.0, "git_sha": "pinned"},
        )
        (row,) = load_timings(path)
        assert row.git_sha == "pinned"

    def test_environment_fields_shape(self):
        fields = environment_fields()
        assert fields["schema"] == TIMINGS_SCHEMA
        assert set(fields) == {"schema", "git_sha", "hostname", "cpu_count"}
        assert fields["cpu_count"] == os.cpu_count()

    def test_percentiles_from_rounds(self):
        rounds = [float(i) for i in range(1, 101)]
        p = percentiles_from_rounds(rounds)
        assert p["p50_s"] == 50.0
        assert p["p90_s"] == 90.0
        assert p["p99_s"] == 99.0
        assert percentiles_from_rounds([]) == {
            "p50_s": None,
            "p90_s": None,
            "p99_s": None,
        }

    def test_single_round_percentiles_collapse(self):
        p = percentiles_from_rounds([2.5])
        assert p == {"p50_s": 2.5, "p90_s": 2.5, "p99_s": 2.5}


class TestLoader:
    def test_legacy_rows_load_as_schema_1(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_rows(
            path,
            [
                {
                    "experiment": "fig08",
                    "scale": "smoke",
                    "rounds": 1,
                    "mean_s": 3.0,
                    "min_s": 3.0,
                    "max_s": 3.0,
                    "stddev_s": None,
                    "timestamp_unix": 1.754e9,
                }
            ],
        )
        (row,) = load_timings(path)
        assert row.schema == 1
        assert row.jobs == 1
        assert row.git_sha is None
        assert row.p99_s is None

    def test_unknown_fields_preserved_in_extra(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_rows(
            path,
            [
                {
                    "experiment": "service_replay",
                    "mean_s": 1.0,
                    "requests_per_s": 9000.0,
                }
            ],
        )
        (row,) = load_timings(path)
        assert row.extra == {"requests_per_s": 9000.0}

    def test_invalid_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"experiment": "x", "mean_s": 1.0}\nnot json\n')
        with pytest.raises(ParameterError, match=":2"):
            load_timings(path)

    def test_row_without_mean_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_rows(path, [{"experiment": "x"}])
        with pytest.raises(ParameterError, match="mean_s"):
            load_timings(path)

    def test_committed_baseline_loads(self):
        rows = load_timings(COMMITTED_TIMINGS)
        assert rows
        experiments = {row.experiment for row in rows}
        assert "replicated_clr_scaling" in experiments

    def test_latest_by_key_keeps_file_order_winner(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_rows(
            path,
            [
                {"experiment": "x", "mean_s": 1.0},
                {"experiment": "x", "mean_s": 9.0},
                {"experiment": "x", "mean_s": 2.0, "jobs": 2},
            ],
        )
        latest = latest_by_key(load_timings(path))
        assert latest[("x", None, 1)].mean_s == 9.0
        assert latest[("x", None, 2)].mean_s == 2.0


class TestCompare:
    def test_regression_past_threshold_flagged(self, tmp_path):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        write_rows(base, [{"experiment": "x", "mean_s": 1.0}])
        write_rows(cur, [{"experiment": "x", "mean_s": 2.0}])
        (finding,) = compare_timings(
            load_timings(base), load_timings(cur), threshold=1.5
        )
        assert finding.regression
        assert finding.ratio == pytest.approx(2.0)
        assert "REGRESSION" in finding.format()

    def test_improvement_and_steady_pass(self, tmp_path):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        write_rows(
            base,
            [
                {"experiment": "fast", "mean_s": 1.0},
                {"experiment": "same", "mean_s": 1.0},
            ],
        )
        write_rows(
            cur,
            [
                {"experiment": "fast", "mean_s": 0.2},
                {"experiment": "same", "mean_s": 1.1},
            ],
        )
        findings = compare_timings(
            load_timings(base), load_timings(cur), threshold=1.5
        )
        assert not any(f.regression for f in findings)

    def test_one_sided_keys_skipped(self, tmp_path):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        write_rows(base, [{"experiment": "removed", "mean_s": 1.0}])
        write_rows(cur, [{"experiment": "added", "mean_s": 1.0}])
        assert (
            compare_timings(load_timings(base), load_timings(cur)) == []
        )

    def test_threshold_must_exceed_one(self, tmp_path):
        with pytest.raises(ParameterError, match="> 1"):
            compare_timings([], [], threshold=1.0)


class TestJobsScaling:
    def test_spawn_tax_flagged_within_one_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_rows(
            path,
            [
                {"experiment": "clr", "mean_s": 0.05, "jobs": 1},
                {"experiment": "clr", "mean_s": 3.0, "jobs": 2},
            ],
        )
        (finding,) = jobs_scaling_regressions(
            load_timings(path), threshold=1.0
        )
        assert finding.regression
        assert finding.kind == "jobs-scaling"
        assert finding.ratio == pytest.approx(60.0)

    def test_healthy_scaling_passes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_rows(
            path,
            [
                {"experiment": "clr", "mean_s": 1.0, "jobs": 1},
                {"experiment": "clr", "mean_s": 0.6, "jobs": 2},
            ],
        )
        (finding,) = jobs_scaling_regressions(load_timings(path))
        assert not finding.regression

    def test_jobs_rows_without_serial_sibling_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_rows(
            path, [{"experiment": "clr", "mean_s": 1.0, "jobs": 4}]
        )
        assert jobs_scaling_regressions(load_timings(path)) == []

    def test_committed_replicated_clr_spawn_tax_detected(self):
        # The acceptance check of this PR: the recorded serial-vs-
        # parallel replicated_clr_scaling rows in the committed
        # timings file ARE a jobs-scaling regression (ROADMAP item 1).
        rows = load_timings(COMMITTED_TIMINGS)
        findings = jobs_scaling_regressions(rows, threshold=1.0)
        flagged = {
            (f.experiment, f.jobs)
            for f in findings
            if f.regression
        }
        assert ("replicated_clr_scaling", 2) in flagged
        assert ("replicated_clr_scaling", 4) in flagged
