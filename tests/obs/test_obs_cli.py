"""Tests for the ``obs`` CLI verb: report, compare, slo."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import export
from repro.obs.cli import main as obs_main
from repro.obs.sketch import QuantileSketch

COMMITTED_TIMINGS = (
    Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "results"
    / "timings.jsonl"
)


def write_timings(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def write_metrics(path, metric_dicts):
    export.write_jsonl(path, span_records=(), metric_dicts=metric_dicts)


def sketch_dict(name, values):
    sketch = QuantileSketch(name)
    sketch.observe_many(values)
    return sketch.to_dict()


class TestReport:
    def test_report_merges_files(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_metrics(
            a,
            [
                {"type": "counter", "name": "service.admitted", "value": 3.0},
                sketch_dict("service.admit_latency_ns", [100.0] * 10),
            ],
        )
        write_metrics(
            b,
            [
                {"type": "counter", "name": "service.admitted", "value": 2.0},
                sketch_dict("service.admit_latency_ns", [200.0] * 10),
            ],
        )
        assert obs_main(["report", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "service.admitted" in out
        assert "service.admit_latency_ns" in out

    def test_report_json_merges_counters_and_sketches(
        self, tmp_path, capsys
    ):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_metrics(
            a, [{"type": "counter", "name": "n", "value": 3.0}]
        )
        write_metrics(
            b,
            [
                {"type": "counter", "name": "n", "value": 2.0},
                sketch_dict("lat", [5.0, 6.0]),
            ],
        )
        assert obs_main(["report", "--json", str(a), str(b)]) == 0
        payload = json.loads(capsys.readouterr().out)
        merged = {m["name"]: m for m in payload["metrics"]}
        assert merged["n"]["value"] == 5.0
        assert merged["lat"]["count"] == 2


class TestCompare:
    def test_cross_file_regression_exits_nonzero(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        write_timings(base, [{"experiment": "x", "mean_s": 1.0}])
        write_timings(cur, [{"experiment": "x", "mean_s": 4.0}])
        assert obs_main(["compare", str(base), str(cur)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_warn_only_downgrades_to_zero(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        write_timings(base, [{"experiment": "x", "mean_s": 1.0}])
        write_timings(cur, [{"experiment": "x", "mean_s": 4.0}])
        assert (
            obs_main(["compare", "--warn-only", str(base), str(cur)]) == 0
        )
        assert "REGRESSION" in capsys.readouterr().out

    def test_steady_timings_pass(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        write_timings(base, [{"experiment": "x", "mean_s": 1.0}])
        write_timings(cur, [{"experiment": "x", "mean_s": 1.1}])
        assert obs_main(["compare", str(base), str(cur)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_json_findings(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        cur = tmp_path / "cur.jsonl"
        write_timings(base, [{"experiment": "x", "mean_s": 1.0}])
        write_timings(cur, [{"experiment": "x", "mean_s": 4.0}])
        assert (
            obs_main(["compare", "--json", str(base), str(cur)]) == 1
        )
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["findings"]
        assert finding["regression"] is True
        assert finding["ratio"] == pytest.approx(4.0)

    def test_missing_current_without_jobs_scaling_errors(self, tmp_path):
        base = tmp_path / "base.jsonl"
        write_timings(base, [{"experiment": "x", "mean_s": 1.0}])
        with pytest.raises(SystemExit):
            obs_main(["compare", str(base)])

    def test_committed_jobs_scaling_regression_flagged(self, capsys):
        # The acceptance check: `obs compare --jobs-scaling` must flag
        # the recorded serial-vs-jobs=2 replicated_clr_scaling rows in
        # the committed benchmark baseline.
        code = obs_main(
            [
                "compare",
                str(COMMITTED_TIMINGS),
                "--jobs-scaling",
                "--threshold",
                "1.0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "replicated_clr_scaling" in out
        assert "REGRESSION" in out


class TestSlo:
    def test_default_spec_flags_violations(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        write_metrics(
            metrics,
            [
                {
                    "type": "counter",
                    "name": "service.boundary_violations",
                    "value": 2.0,
                }
            ],
        )
        assert obs_main(["slo", str(metrics)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "boundary_violations" in out

    def test_warn_only_and_clean_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        write_metrics(
            metrics,
            [
                {
                    "type": "counter",
                    "name": "service.boundary_violations",
                    "value": 0.0,
                }
            ],
        )
        assert obs_main(["slo", str(metrics)]) == 0
        dirty = tmp_path / "d.jsonl"
        write_metrics(
            dirty,
            [
                {
                    "type": "counter",
                    "name": "service.boundary_violations",
                    "value": 1.0,
                }
            ],
        )
        assert obs_main(["slo", "--warn-only", str(dirty)]) == 0

    def test_spec_file_and_json_output(self, tmp_path, capsys):
        metrics = tmp_path / "m.jsonl"
        write_metrics(
            metrics, [sketch_dict("lat", [100.0] * 90 + [9_000.0] * 10)]
        )
        spec = tmp_path / "slos.json"
        spec.write_text(
            json.dumps(
                [
                    {
                        "name": "p99",
                        "kind": "quantile",
                        "metric": "lat",
                        "quantile": 0.99,
                        "threshold": 500.0,
                    }
                ]
            )
        )
        assert (
            obs_main(
                ["slo", "--json", "--spec", str(spec), str(metrics)]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        (result,) = payload["results"]
        assert result["ok"] is False
        assert result["burn"] > 1.0

    def test_window_burn_rate(self, tmp_path, capsys):
        sketch = QuantileSketch("lat")
        sketch.observe_many([10.0] * 100)
        start = tmp_path / "start.jsonl"
        write_metrics(start, [sketch.to_dict()])
        sketch.observe_many([9_000.0] * 100)
        end = tmp_path / "end.jsonl"
        write_metrics(end, [sketch.to_dict()])
        spec = tmp_path / "slos.json"
        spec.write_text(
            json.dumps(
                [
                    {
                        "name": "p50",
                        "kind": "quantile",
                        "metric": "lat",
                        "quantile": 0.5,
                        "threshold": 100.0,
                    }
                ]
            )
        )
        assert (
            obs_main(
                [
                    "slo",
                    "--spec",
                    str(spec),
                    "--window-start",
                    str(start),
                    str(end),
                ]
            )
            == 1
        )
        assert "window burn rate" in capsys.readouterr().out


class TestRunnerDelegation:
    def test_runner_forwards_obs_verb(self, capsys):
        from repro.experiments.runner import main as runner_main

        code = runner_main(
            [
                "obs",
                "compare",
                str(COMMITTED_TIMINGS),
                "--jobs-scaling",
                "--warn-only",
            ]
        )
        assert code == 0
        assert "replicated_clr_scaling" in capsys.readouterr().out
