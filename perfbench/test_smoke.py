"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload untraced and traced with ``--smoke`` and checks
the output contract: the last line is one JSON object with exactly
``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics are
exactly the end-to-end (untraced) or per-layer (traced) names of
``BENCHMARK.json``, every run is correct, and neither a shared-memory
segment nor a process survives a run.  Also checks that ``BENCHMARK.json`` matches ``spec.py`` and
that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import procs  # noqa: E402
import spec  # noqa: E402


def _shm() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_shm_")}
    except FileNotFoundError:
        return set()


def _run(*flags: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark; assert that none of its processes outlives it.

    This process adopts the run's orphans, so a process that outlived
    its parent is found here even if it has ended since.
    """
    procs.become_subreaper()
    before = set(procs.children())
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *flags]
    with subprocess.Popen(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as process:
        stdout, stderr = process.communicate(timeout=600)
    orphans = sorted(set(procs.children()) - before)
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert orphans == [], "a process of the run outlived it"
    return subprocess.CompletedProcess(command, process.returncode,
                                       stdout, stderr)


def test_benchmark_json_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    for workload in committed["workloads"]:
        assert len(workload["why"]) <= 200
    assert {m["name"] for m in committed["end_to_end"]} >= {"setup_s"}
    assert max(m["bound"] for m in committed["end_to_end"]) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_smoke(trace):
    before = _shm()
    out = _run("--smoke", "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace))
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
    lines = out.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    expected = (
        [name for name, _, _ in spec.PER_LAYER]
        if trace
        else [m["name"] for m in spec.END_TO_END]
    )
    assert set(final["metrics"]) == {
        f"{workload}.{name}"
        for workload in spec.WORKLOAD_NAMES
        for name in expected
    }
    metas = [json.loads(line)["meta"] for line in lines
             if line.startswith('{"meta"')]
    assert [m["workload"] for m in metas] == list(spec.WORKLOAD_NAMES)
    for meta in metas:
        for key in ("cpu_count", "jobs", "telemetry", "seed", "git_sha",
                    "python", "numpy", "host_ref_ops_per_s"):
            assert key in meta, (meta["workload"], key)
    assert _shm() <= before


def test_single_workload_contract():
    out = _run("--smoke", "--workload", "replay", "--seed", "5",
               "--seconds", "0.5", "--trace", "0")
    assert out.returncode == 0, out.stderr[-4000:]
    final = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(final["metrics"]) == {m["name"] for m in spec.END_TO_END}
    for name, metric in final["metrics"].items():
        assert metric["unit"] == spec.END_TO_END_UNITS[name]
        assert metric["value"] > 0
    assert final["attempted"] >= 1


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = _run("--workload", "replay", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_wire_check_compares_whole_response():
    import wire

    stream = wire.Stream()
    stream.expected.append(b'{"admitted": true, "ok": true, "shard": 0}')
    connection = wire._Connection(None, None, stream)
    assert connection.check(0, b'{"shard": 0, "ok": true, "admitted": true}')
    assert not connection.check(
        0, b'{"admitted": true, "ok": true, "shard": 1}'
    )
    assert not connection.check(0, b"not json")


def test_tracer_self_time():
    from tracing import Tracer

    tracer = Tracer("test")
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    for _ in range(3):
        outer()
    stats = tracer.aggregate()
    assert len(tracer) == 9
    assert stats["outer"]["calls"] == 3 and stats["inner"]["calls"] == 6
    assert stats["inner"]["self_s"] == stats["inner"]["total_s"]
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["total_s"] - stats["inner"]["total_s"]
    )
