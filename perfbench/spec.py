"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this
module (``python3 perfbench/run.py --write-benchmark-json``); the
smoke test checks that the committed file still matches it.

Every workload reports every end-to-end metric, so the metrics are
named for what they mean on any workload: ``work_per_s`` is the
workload's unit of work per second (see ``UNIT_OF_WORK``).
"""

from __future__ import annotations

import json
from pathlib import Path

#: The command the benchmark is run with, from the repository root.
COMMAND = ("python3", "perfbench/run.py")

#: Directories that hold the benchmark and nothing else.
PATHS = ("perfbench",)

#: Seconds one run measures for.
RUN_SECONDS = 8

WORKLOADS = (
    (
        "replay",
        "serial replay_workload at rho 0.6, telemetry off: the per-request "
        "admit/release/lookup path alone, never at the boundary",
    ),
    (
        "drive",
        "drive() at --jobs 2 on 2 hash shards, telemetry forced on, rho "
        "0.6-0.99: sketches, shard dispatch and placement",
    ),
    (
        "clr",
        "replicated_clr_curve at jobs=2 of Z^0.975 and its DAR(3) fit on "
        "the Fig. 8 grid, side by side as in Fig. 9: FBNDP and per-frame "
        "Markov sampling",
    ),
    (
        "wire",
        "runner serve over loopback line-JSON, 2 connections: asyncio, "
        "JSON and socket cost, the only path an operator times",
    ),
)

#: What one unit of ``work_per_s`` is on each workload.
UNIT_OF_WORK = {
    "replay": "admission decision",
    "drive": "admission decision",
    "clr": "LRD-vs-Markov comparison (one CLR curve of each model)",
    "wire": "response in the closed-loop phase",
}

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
)


def _calls_and_time(prefix: str):
    return (
        (f"{prefix}.calls", "count", "lower"),
        (f"{prefix}.us_per_call", "us", "lower"),
    )


#: (name, unit, better) of every per-layer metric.  A traced run
#: reports all of them; a layer the workload never reaches reads 0.
PER_LAYER = (
    *_calls_and_time("service.engine.admit"),
    *_calls_and_time("service.engine.release"),
    *_calls_and_time("service.tables.lookup"),
    ("service.tables.lookup.hit_ratio", "ratio", "higher"),
    ("atm.cac.admissible_connections.calls", "count", "lower"),
    ("atm.cac.admissible_connections.s", "s", "lower"),
    ("service.workload.generate_workload.requests", "count", "lower"),
    ("service.workload.generate_workload.s", "s", "lower"),
    ("service.replay.replay_link.self_s", "s", "lower"),
    *_calls_and_time("obs.metrics.observe_sketch"),
    *_calls_and_time("obs.metrics.add"),
    ("service.drive.shard.requests_max", "count", "lower"),
    ("service.drive.shard.requests_mean", "count", "lower"),
    ("service.drive.shard.busy_s_max", "s", "lower"),
    ("service.drive.shard_imbalance", "ratio", "lower"),
    ("parallel.session.submit_s", "s", "lower"),
    ("parallel.session.wait_s", "s", "lower"),
    ("parallel.merge_result_telemetry.s", "s", "lower"),
    ("parallel.shm.publish_blob.calls", "count", "lower"),
    ("parallel.shm.publish_blob.s", "s", "lower"),
    ("parallel.shm.attach_blob.calls", "count", "lower"),
    ("parallel.shm.attach_blob.s", "s", "lower"),
    ("parallel.warm_pool.warm.s", "s", "lower"),
    ("models.fbndp.superposed_onoff_occupancy.s", "s", "lower"),
    ("models.heavy_tail.ppf.calls", "count", "lower"),
    ("models.heavy_tail.ppf.draws_per_frame", "draws/frame", "lower"),
    ("models.heavy_tail.ppf.s", "s", "lower"),
    ("models.dar.sample_aggregate.order1.frames", "count", "lower"),
    ("models.dar.sample_aggregate.order1.s", "s", "lower"),
    ("models.dar.sample_aggregate.order3.frames", "count", "lower"),
    ("models.dar.sample_aggregate.order3.s", "s", "lower"),
    ("queueing.simulate_finite_buffer_batch.calls", "count", "lower"),
    ("queueing.simulate_finite_buffer_batch.s", "s", "lower"),
    ("queueing.replicated_clr_curve.self_s", "s", "lower"),
    *_calls_and_time("service.frontend.admit"),
    *_calls_and_time("service.frontend.release"),
    ("wire.server_cpu_us_per_req", "us", "lower"),
    ("wire.client_cpu_us_per_req", "us", "lower"),
    ("wire.server_self_us_per_req", "us", "lower"),
    ("wire.generator_lag_ms", "ms", "lower"),
    ("wire.backlog_max", "count", "lower"),
    ("wire.admit_p50_us", "us", "lower"),
    ("wire.admit_p99_us", "us", "lower"),
    ("wire.max_rps_under_slo", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("host.ref_ops_per_s", "1/s", "higher"),
)

END_TO_END_UNITS = {m["name"]: m["unit"] for m in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this module describes."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def write_benchmark_json(path: Path) -> None:
    path.write_text(
        json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8"
    )
