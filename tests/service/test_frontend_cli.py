"""Tests for the ``serve`` / ``drive`` CLI verbs and runner delegation."""

import json

import pytest

from repro.service.frontend_cli import (
    DEFAULT_RHO_GRID,
    build_parser,
    main,
)

SMALL = [
    "drive",
    "--links",
    "2",
    "--requests",
    "200",
    "--rho",
    "0.9",
    "--class",
    "dar1",
    "--seed",
    "99",
]


class TestParser:
    def test_drive_defaults(self):
        assert vars(build_parser().parse_args(["drive"])) == {
            "breaker_cooldown": 64,
            "capacity_mbps": 155.52,
            "classes": None,
            "clr": 1e-06,
            "command": "drive",
            "decision_rate": None,
            "delay_ms": 20.0,
            "heavy_tailed": False,
            "holding_mean": 90.0,
            "jobs": 1,
            "json": False,
            "links": 4,
            "max_queue": None,
            "policy": "bahadur-rao",
            "regime_plan": None,
            "report_out": None,
            "requests": 10_000,
            "rho": None,  # falls back to DEFAULT_RHO_GRID
            "seed": 20260806,
            "shards": None,
            "table_cache": None,
            "tail_gamma": 1.5,
            "timings": None,
        }
        assert DEFAULT_RHO_GRID == (0.6, 0.8, 0.9, 0.95, 0.99)

    def test_serve_defaults(self):
        assert vars(build_parser().parse_args(["serve"])) == {
            "breaker_cooldown": 64,
            "capacity_mbps": 155.52,
            "classes": None,
            "clr": 1e-06,
            "command": "serve",
            "decision_rate": None,
            "delay_ms": 20.0,
            "host": "127.0.0.1",
            "links": 4,
            "max_queue": None,
            "policy": "bahadur-rao",
            "port": 0,
            "shards": None,
            "table_cache": None,
        }

    def test_requires_a_verb(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["drive", "--links", "0"],
            ["drive", "--rho", "-1"],
            ["drive", "--requests", "0"],
            ["drive", "--policy", "erlang-b"],
            ["drive", "--max-queue", "-1"],
            ["serve", "--max-queue", "-1"],
            ["serve", "--port", "70000"],
            ["drive", "--regime-plan", "dar1@0,nosuch@100"],
        ],
    )
    def test_invalid_arguments_exit(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestDriveVerb:
    def test_table_report_printed(self, capsys):
        assert main(SMALL) == 0
        out = capsys.readouterr().out
        assert "rho" in out
        assert "p99" in out
        assert "boundary violations: 0" in out

    def test_json_report(self, capsys):
        assert main(SMALL + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "latency_vs_rho"
        assert report["source"] == "frontend_drive"
        assert [row["rho"] for row in report["rows"]] == [0.9]
        assert report["boundary_violations"] == 0

    def test_report_out_and_timings(self, tmp_path, capsys):
        report_path = tmp_path / "latency_vs_rho.json"
        timings_path = tmp_path / "timings.jsonl"
        assert (
            main(
                SMALL
                + [
                    "--report-out",
                    str(report_path),
                    "--timings",
                    str(timings_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        assert report["kind"] == "latency_vs_rho"
        rows = [
            json.loads(line)
            for line in timings_path.read_text().splitlines()
        ]
        assert len(rows) == 1
        row = rows[0]
        assert row["experiment"] == "frontend_drive"
        assert row["requests"] == 400
        assert row["requests_per_s"] > 0

    def test_same_seed_same_report_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            main(SMALL + ["--report-out", str(path)])
        a = json.loads(paths[0].read_text())
        b = json.loads(paths[1].read_text())
        # Latency quantiles and wall-clock are measured, not derived;
        # everything decision-valued must be bit-identical.
        for row_a, row_b in zip(a.pop("rows"), b.pop("rows")):
            for key in ("admit_latency_ns", "wall_seconds",
                        "decisions_per_second"):
                row_a.pop(key)
                row_b.pop(key)
            assert row_a == row_b
        assert a == b


class TestRunnerDelegation:
    def test_drive_via_runner(self, capsys):
        from repro.experiments.runner import main as runner_main

        assert runner_main(SMALL + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "latency_vs_rho"


class TestRegimePlanFlag:
    def test_ramped_plan_changes_blocking(self, capsys):
        assert main(SMALL + ["--json"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert (
            main(
                SMALL
                + ["--json", "--regime-plan", "dar1@0,dar1@100x5.0"]
            )
            == 0
        )
        ramped = json.loads(capsys.readouterr().out)
        assert (
            ramped["rows"][0]["blocked"] > base["rows"][0]["blocked"]
        )
        assert ramped["boundary_violations"] == 0

    def test_plan_classes_added_to_candidates(self, capsys):
        # A plan referencing a class outside --class resolves via the
        # presets instead of erroring.
        assert (
            main(SMALL + ["--regime-plan", "dar1@0,video@100"]) == 0
        )

    def test_malformed_plan_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(SMALL + ["--regime-plan", "dar1@50"])
        assert "regime" in capsys.readouterr().err
