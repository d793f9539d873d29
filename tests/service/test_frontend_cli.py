"""Tests for the ``serve`` / ``drive`` CLI verbs and runner delegation."""

import json
import re
import socket

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
            ["drive", "--class", "nope"],
            ["drive", "--jobs", "0"],
        ],
    )
    def test_invalid_arguments_exit(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        # Refused before the table header, and before any drive work.
        assert capsys.readouterr().out == ""


class TestServeVerb:
    def test_busy_port_is_a_usage_error(self, capsys):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            port = busy.getsockname()[1]
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--port", str(port), "--links", "1",
                      "--class", "dar1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert re.search(
            rf"error: cannot listen on 127\.0\.0\.1:{port}: .*in use",
            captured.err.splitlines()[-1],
        )


class TestDriveVerb:
    def test_table_report_printed(self, capsys):
        assert main(SMALL) == 0
        out = capsys.readouterr().out
        assert "rho" in out
        assert "p99" in out
        assert "boundary violations: 0" in out

    def test_prints_links_in_link_order(self, capsys):
        # From 11 links up, string order would put link-10 before
        # link-2; the per-link rows must follow the link index.
        argv = ["drive", "--links", "11", "--requests", "50",
                "--rho", "0.9", "--class", "dar1"]
        assert main(argv) == 0
        printed = re.findall(r"\blink-\d+\b", capsys.readouterr().out)
        assert printed == [f"link-{i}" for i in range(11)]

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

    def test_report_out_has_per_link_latency(self, tmp_path, capsys):
        report_path = tmp_path / "latency_vs_rho.json"
        assert (
            main(SMALL + ["--rho", "1.1", "--report-out", str(report_path)])
            == 0
        )
        rows = json.loads(report_path.read_text())["rows"]
        assert [row["rho"] for row in rows] == [0.9, 1.1]
        for row in rows:
            links = row["link_admit_latency_ns"]
            assert sorted(links) == ["link-0", "link-1"]
            for quantiles in links.values():
                assert sorted(quantiles) == ["p0.5", "p0.99", "p0.999"]
                assert all(v > 0.0 for v in quantiles.values())

    def test_same_seed_same_report_bytes(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            main(SMALL + ["--report-out", str(path)])
        a = json.loads(paths[0].read_text())
        b = json.loads(paths[1].read_text())
        # Latency quantiles and wall-clock are measured, not derived;
        # everything decision-valued must be bit-identical.
        for row_a, row_b in zip(a.pop("rows"), b.pop("rows")):
            for key in ("admit_latency_ns", "link_admit_latency_ns",
                        "wall_seconds", "decisions_per_second"):
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
