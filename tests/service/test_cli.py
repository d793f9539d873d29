"""Tests for the ``workload`` CLI verb (and its runner delegation)."""

import json

import pytest

from repro.service.cli import build_class as _build_class, build_parser, main

SMALL = ["--requests", "300", "--seed", "99"]


class TestClassPresets:
    def test_default_weight(self):
        cls = _build_class("dar1")
        assert cls.name == "dar1"
        assert cls.weight == 1.0

    def test_explicit_weight(self):
        assert _build_class("conference:2.5").weight == 2.5

    def test_unknown_preset_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="unknown class"):
            _build_class("voip")

    def test_bad_weight_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError, match="weight"):
            _build_class("dar1:heavy")


class TestParser:
    def test_defaults(self):
        assert vars(build_parser().parse_args([])) == {
            "arrival_rate": None,
            "backoff": 0.0,
            "breaker_cooldown": 64,
            "capacity_mbps": 155.52,
            "chaos_crash": None,
            "chaos_hang": None,
            "chaos_table_fault": None,
            "chaos_torn_write": None,
            "classes": None,
            "clr": 1e-06,
            "decision_rate": None,
            "delay_ms": 20.0,
            "erlangs": None,
            "heartbeat": 0.5,
            "heavy_tailed": False,
            "holding_mean": 90.0,
            "jobs": 1,
            "journal_dir": None,
            "links": 1,
            "max_queue": None,
            "max_restarts": 2,
            "policy": "bahadur-rao",
            "requests": 10_000,
            "seed": 20260806,
            "shard_timeout": None,
            "snapshot_every": 2000,
            "summary_out": None,
            "supervise": False,
            "table_cache": None,
            "tail_gamma": 1.5,
            "trace": False,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["--requests", "0"],
            ["--links", "0"],
            ["--jobs", "0"],
            ["--policy", "erlang-b"],
            ["--max-queue", "-1"],
            ["--max-queue", "4", "--breaker-cooldown", "0"],
            ["--supervise", "--max-restarts", "-1"],
            ["--supervise", "--heartbeat", "0"],
        ],
    )
    def test_invalid_arguments_exit(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestMain:
    def test_replay_report_printed(self, capsys):
        assert main(SMALL + ["--class", "dar1"]) == 0
        out = capsys.readouterr().out
        assert "workload replay" in out
        assert "boundary violations 0" in out

    def test_summary_out_is_canonical_json(self, tmp_path, capsys):
        out_path = tmp_path / "summary.json"
        main(SMALL + ["--class", "dar1", "--summary-out", str(out_path)])
        text = out_path.read_text()
        summary = json.loads(text)
        assert summary["n_requests"] == 300
        assert summary["boundary_violations"] == 0
        assert text == json.dumps(summary, sort_keys=True) + "\n"

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            main(SMALL + ["--class", "dar1", "--summary-out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_table_cache_warms_across_runs(self, tmp_path, capsys):
        cache = tmp_path / "tables.jsonl"
        main(SMALL + ["--class", "dar1", "--table-cache", str(cache)])
        assert cache.exists()
        lines = cache.read_text().splitlines()
        assert len(lines) == 1
        # A second run computes nothing new.
        main(SMALL + ["--class", "dar1", "--table-cache", str(cache)])
        assert cache.read_text().splitlines() == lines

    def test_heterogeneous_mix_needs_eb_policy(self, capsys):
        argv = SMALL + ["--class", "dar1", "--class", "conference"]
        # Count policies reject mixes (through parser.error -> exit 2)...
        with pytest.raises(SystemExit):
            main(argv + ["--erlangs", "40"])
        # ...while the effective-bandwidth policy serves them.
        assert (
            main(
                argv
                + ["--policy", "effective-bandwidth", "--erlangs", "40"]
            )
            == 0
        )

    def test_trace_prints_telemetry_summary(self, capsys):
        from repro import obs

        try:
            assert main(SMALL + ["--class", "dar1", "--trace"]) == 0
        finally:
            obs.reset()
            obs.disable()
        out = capsys.readouterr().out
        assert "service.replay" in out


class TestRunnerDelegation:
    def test_workload_verb_routes_to_service(self, capsys):
        from repro.experiments.runner import main as runner_main

        code = runner_main(
            ["workload", "--requests", "200", "--class", "dar1"]
        )
        assert code == 0
        assert "workload replay" in capsys.readouterr().out
