"""Cost of the adaptive path: replay throughput, rebuild and swap.

The adaptation loop's two potentially expensive pieces run off the
admission hot path, but their latency bounds how long a link keeps
mis-admitting after drift is detected, so both are tracked in the
shared ``timings.jsonl`` ledger and gated by ``obs compare``:

* ``adaptive_recompute`` — one ``rebuild_table_text`` of the demo's
  declared mix under an estimated video model (the Bahadur-Rao
  inversion dominates);
* ``adaptive_swap`` — loading the rebuilt image into a live
  ``DecisionTableCache`` plus invalidating the engine's decision
  caches (what happens between two requests at swap time).

A third row, ``adaptive_replay_throughput``, times the whole
per-request loop of ``adaptive_replay_link``: one link of the demo's
conference-to-video plan, serial, telemetry off, requests/second over
five rounds, with the host's core count on the row.
"""

import os

import pytest

from conftest import RESULTS_DIR, TIMINGS_PATH

from repro.obs.timings import append_timing_row, percentiles_from_rounds

from repro.adaptive.nonstationary import parse_regime_plan
from repro.adaptive.recompute import adaptive_replay_link, rebuild_table_text
from repro.atm.qos import QoSRequirement
from repro.service.cli import build_class
from repro.service.engine import AdmissionEngine
from repro.service.tables import DecisionTableCache
from repro.service.workload import WorkloadSpec
from repro.utils.units import mbps_to_cells_per_frame

CAPACITY = mbps_to_cells_per_frame(155.52)
QOS = QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)
DECLARED = (build_class("conference"),)
ESTIMATED = build_class("video").model
ROUNDS = 5
#: One link of the CI drift-smoke demo: 40 Erlangs at 30 s holding,
#: the true traffic switching from conference to video half-way.
REPLAY_REQUESTS = 20_000
REPLAY_PLAN = "conference@0,video@10000"


def _record(experiment, stats, extras):
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "experiment": experiment,
        "scale": "demo",
        "rounds": ROUNDS,
        "jobs": 1,
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
    }
    record.update(extras)
    record.update(percentiles_from_rounds(stats.sorted_data))
    append_timing_row(TIMINGS_PATH, record)


def test_adaptive_recompute(benchmark):
    def rebuild():
        return rebuild_table_text(
            DECLARED, ESTIMATED, CAPACITY, QOS, ("bahadur-rao",)
        )

    text = benchmark.pedantic(
        rebuild, rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    assert text.strip()
    stats = benchmark.stats.stats
    print(
        f"\nadaptive recompute: {len(text.splitlines())} entries in "
        f"{stats.mean * 1e3:.2f}ms"
    )
    _record(
        "adaptive_recompute", stats, {"entries": len(text.splitlines())}
    )


def test_adaptive_swap(benchmark):
    text = rebuild_table_text(
        DECLARED, ESTIMATED, CAPACITY, QOS, ("bahadur-rao",)
    )
    tables = DecisionTableCache(persist=False)
    engine = AdmissionEngine("link-0", CAPACITY, QOS, tables=tables)

    def swap():
        tables.load_text(text)
        engine.invalidate_decision_caches()

    benchmark.pedantic(
        swap, rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    boundary = tables.lookup(
        DECLARED[0].model, CAPACITY, QOS, "bahadur-rao"
    )
    # The swapped image carries the video-sized boundary.
    assert boundary.admissible == 27
    stats = benchmark.stats.stats
    print(f"\nadaptive swap: {stats.mean * 1e6:.1f}us per swap")
    _record("adaptive_swap", stats, {"entries": len(text.splitlines())})


def test_adaptive_replay_throughput(benchmark):
    spec = WorkloadSpec(
        n_requests=REPLAY_REQUESTS,
        arrival_rate=40.0 / 30.0,
        mean_holding_time=30.0,
    )
    plan = parse_regime_plan(REPLAY_PLAN)
    candidates = DECLARED + (build_class("video"),)

    def replay():
        return adaptive_replay_link(
            spec,
            DECLARED,
            plan,
            candidates,
            capacity=CAPACITY,
            qos=QOS,
            policy="bahadur-rao",
            rng=20260806,
        )

    stats_link = benchmark.pedantic(
        replay, rounds=ROUNDS, iterations=1, warmup_rounds=1
    )
    assert stats_link.swaps == 1
    assert stats_link.boundary_violations == 0
    stats = benchmark.stats.stats
    requests_per_s = stats_link.n_requests / stats.mean
    print(
        f"\nadaptive replay_link: {stats_link.n_requests} requests in "
        f"{stats.mean:.3f}s (mean of {ROUNDS}) = {requests_per_s:,.0f} req/s"
    )
    _record(
        "adaptive_replay_throughput",
        stats,
        {
            "scale": f"link1x{REPLAY_REQUESTS}:{REPLAY_PLAN}",
            "requests": stats_link.n_requests,
            "requests_per_s": requests_per_s,
            "telemetry": "off",
            "cpu_count": os.cpu_count(),
            "layer": "replay",
        },
    )
