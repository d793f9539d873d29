"""Tests for the ``obs`` CLI verb: report, sweep, compare, slo."""

from __future__ import annotations

import json
import re
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


class TestSweep:
    @pytest.mark.slow
    def test_sweep_three_rho_points(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        code = obs_main(
            [
                "sweep",
                "--class",
                "dar1",
                "--requests",
                "400",
                "--rho",
                "0.6",
                "--rho",
                "0.9",
                "--rho",
                "1.1",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency-vs-rho sweep" in out
        report = json.loads(out_file.read_text())
        assert report["kind"] == "latency_vs_rho"
        assert [row["rho"] for row in report["rows"]] == [0.6, 0.9, 1.1]
        for row in report["rows"]:
            assert row["n_requests"] == 400
            for key in ("p0.5", "p0.99", "p0.999"):
                assert row["admit_latency_ns"][key] > 0.0
        # Higher utilization must not lower the blocking probability.
        blocking = [row["blocking_probability"] for row in report["rows"]]
        assert blocking == sorted(blocking)
        assert blocking[-1] > 0.0

    def test_sweep_prints_links_in_link_order(self, capsys):
        # From 11 links up, string order would put link-10 before
        # link-2; the rows must follow the link index.
        code = obs_main(
            [
                "sweep",
                "--class",
                "dar1",
                "--links",
                "11",
                "--requests",
                "50",
                "--rho",
                "0.9",
            ]
        )
        assert code == 0
        printed = re.findall(r"\blink-\d+\b", capsys.readouterr().out)
        assert printed == [f"link-{i}" for i in range(11)]

    def test_sweep_defaults(self):
        from repro.obs.cli import build_parser

        assert vars(build_parser().parse_args(["sweep"])) == {
            "capacity_mbps": 155.52,
            "classes": None,
            "clr": 1e-06,
            "command": "sweep",
            "delay_ms": 20.0,
            "holding_mean": 90.0,
            "jobs": 1,
            "links": 1,
            "out": None,
            "policy": "bahadur-rao",
            "requests": 20_000,
            "rho": None,
            "seed": 20260806,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rho", "-0.5"],
            ["--class", "nope"],
            ["--policy", "erlang-b"],
            ["--jobs", "0"],
        ],
    )
    def test_sweep_rejects_bad_grid(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            obs_main(["sweep", *argv])
        assert excinfo.value.code == 2
        # Refused before the table header, and before any replay work.
        assert capsys.readouterr().out == ""

    def test_sweep_rows_match_drive(self, tmp_path, capsys):
        from repro.experiments.runner import main as runner_main

        shared = [
            "--links", "2",
            "--requests", "400",
            "--class", "dar1",
            "--rho", "0.6",
            "--rho", "1.1",
            "--seed", "99",
        ]
        sweep_path = tmp_path / "sweep.json"
        drive_path = tmp_path / "drive.json"
        assert obs_main(["sweep", *shared, "--out", str(sweep_path)]) == 0
        assert (
            runner_main(["drive", *shared, "--report-out", str(drive_path)])
            == 0
        )
        keys = ("rho", "offered_erlangs", "n_requests", "blocking_probability")
        sweep_rows = json.loads(sweep_path.read_text())["rows"]
        drive_rows = json.loads(drive_path.read_text())["rows"]
        assert [[row[k] for k in keys] for row in sweep_rows] == [
            [row[k] for k in keys] for row in drive_rows
        ]
        for row in sweep_rows:
            assert sorted(row["links"]) == ["link-0", "link-1"]
            for quantiles in row["links"].values():
                assert all(v > 0.0 for v in quantiles.values())


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
