"""Tests for the ``adapt`` CLI verb."""

import json

import pytest

from repro.adaptive.cli import build_parser, main
from repro.experiments import runner

ADAPT_ARGS = [
    "--requests", "8000",
    "--links", "1",
    "--erlangs", "40",
    "--holding-mean", "30",
    "--regime-plan", "conference@0,video@3000",
    "--seed", "20260806",
]


class TestParser:
    def test_defaults(self):
        assert vars(build_parser().parse_args([])) == {
            "arrival_rate": None,
            "buckets": 20,
            "capacity_mbps": 155.52,
            "classes": None,
            "clr": 1e-06,
            "clr_out": None,
            "delay_ms": 20.0,
            "diurnal_amplitude": 0.0,
            "diurnal_period": 0,
            "drift_threshold": 8.0,
            "drift_window": 256,
            "erlangs": None,
            "holding_mean": 90.0,
            "jobs": 1,
            "links": 1,
            "policy": "bahadur-rao",
            "recompute": True,
            "recompute_lag": 64,
            "regime_plan": None,
            "requests": 20_000,
            "seed": 20260806,
            "summary_out": None,
            "timings": None,
            "trace": False,
            "variance_ramp": 0.0,
        }

    def test_no_recompute_flag(self):
        args = build_parser().parse_args(["--no-recompute"])
        assert args.recompute is False

    def test_rejects_bad_counts(self):
        with pytest.raises(SystemExit):
            main(["--requests", "0"])
        with pytest.raises(SystemExit):
            main(["--links", "0"])
        with pytest.raises(SystemExit):
            main(["--jobs", "0"])

    def test_rejects_malformed_plan(self, capsys):
        with pytest.raises(SystemExit):
            main(["--regime-plan", "conference@5"])
        assert "regime" in capsys.readouterr().err

    def test_rejects_unknown_plan_class(self, capsys):
        with pytest.raises(SystemExit):
            main(["--regime-plan", "conference@0,nosuch@10"])


class TestMain:
    def test_adaptive_demo_outputs(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        clr_path = tmp_path / "clr.csv"
        timings_path = tmp_path / "timings.jsonl"
        rc = main(
            ADAPT_ARGS
            + [
                "--summary-out", str(summary_path),
                "--clr-out", str(clr_path),
                "--timings", str(timings_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "HELD" in out
        assert "table swaps=1" in out
        assert "boundary 144 -> 27" in out

        summary = json.loads(summary_path.read_text())
        assert summary["kind"] == "adaptive_replay"
        assert summary["holds_target"] is True
        assert summary["swaps"] == 1
        assert summary["dropped"] == 0
        assert summary["boundary_violations"] == 0

        clr_lines = clr_path.read_text().strip().splitlines()
        assert clr_lines[0] == "bucket,requests,mean_clr"
        assert len(clr_lines) == 21

        row = json.loads(timings_path.read_text().strip())
        assert row["experiment"] == "adaptive_replay"
        assert row["schema"] == 2
        assert row["table_swaps"] == 1
        assert row["boundary_violations"] == 0

    def test_static_baseline_violates(self, capsys):
        rc = main(ADAPT_ARGS + ["--no-recompute"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "table swaps=0" in out

    def test_runner_dispatches_adapt_verb(self, capsys):
        rc = runner.main(
            ["adapt", "--requests", "600", "--erlangs", "10",
             "--holding-mean", "30"]
        )
        assert rc == 0
        assert "adaptive replay" in capsys.readouterr().out
