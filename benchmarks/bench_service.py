"""Throughput of the online admission-control replay.

Replays the same overloaded workload serially and sharded across two
warm worker processes, printing requests/second and the decision-table
hit rate, and appending one machine-readable row per configuration to
``benchmarks/results/timings.jsonl`` (experiment ``service_replay``).
The two configurations produce bit-identical summaries — only the
wall-clock differs — so the rows are directly comparable, and the CI
``--jobs-scaling`` gate holds the parallel row to serial throughput.
The pool is warmed before the timed rounds: worker spawn is a one-time
cost the warm-pool architecture amortizes across replays, not part of
per-replay throughput (see ``docs/PERFORMANCE.md``).  Each side is
timed over five rounds: on a 2-vCPU host single-round rows read the
jobs-2/serial ratio anywhere from 0.47x to 1.17x, past the gate's 1.1.

A second pair of rows (experiment ``service_replay_telemetry``) times
one link's 40k-request ``replay_link`` serially with telemetry off and
on, alternating, five rounds each, and records ``telemetry``
(``"on"``/``"off"``) and ``layer: "replay"`` on the row: the cost of
leaving observability on, as a ledger number.  The link is offered 36
Erlangs against N = 30, so 39,904 of its 40,000 requests step through
``AdmissionEngine.admit`` even with telemetry off.

A third pair (experiment ``service_replay_load``, ``layer:
"replay"``) times serial ``replay_workload`` at two loads, five
rounds each, from a warmed table file: 4 ``conference`` links (N =
144) x 5000 requests at rho 0.6, perfbench ``replay``'s size, which
never reaches the boundary, and 4 ``video`` links (N = 27) x 5000 at
rho 1.2, pinned to it.  Under a count policy the first is committed
in chunks below the boundary and the second is mostly decided one
request at a time (``repro.service.kernel``).  They are serial rows
only, so the jobs-scaling gate never pairs them.
"""

import os
import statistics
import time

import pytest

from conftest import RESULTS_DIR, TIMINGS_PATH

from repro import obs
from repro.obs.timings import append_timing_row, percentiles_from_rounds

from repro.atm.qos import QoSRequirement
from repro.models import make_s
from repro.parallel import warm_pool
from repro.service import DecisionTableCache, derive_arrival_rate
from repro.service.cli import build_class
from repro.service.replay import replay_link, replay_workload
from repro.service.workload import ConnectionClass, WorkloadSpec
from repro.utils.units import mbps_to_cells_per_frame

N_REQUESTS = 20_000
N_LINKS = 2
REPLAY_ROUNDS = 5
CAPACITY = 30 * 538.0
TELEMETRY_REQUESTS = 40_000
TELEMETRY_ROUNDS = 5
LOAD_LINKS = 4
LOAD_REQUESTS = 5000
LOAD_ROUNDS = 5
HOLDING_SECONDS = 90.0


def _classes_and_qos():
    classes = (ConnectionClass("dar1", make_s(1, 0.975)),)
    qos = QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)
    return classes, qos


def _replay(jobs):
    spec = WorkloadSpec(
        n_requests=N_REQUESTS, arrival_rate=0.4, mean_holding_time=90.0
    )
    classes, qos = _classes_and_qos()
    return replay_workload(
        spec,
        classes,
        n_links=N_LINKS,
        capacity=CAPACITY,
        qos=qos,
        policy="bahadur-rao",
        rng=20260806,
        jobs=jobs,
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_service_replay(benchmark, jobs):
    if jobs > 1:
        warm_pool(jobs).warm()
    summary = benchmark.pedantic(
        _replay,
        args=(jobs,),
        rounds=REPLAY_ROUNDS,
        iterations=1,
        warmup_rounds=0,
    )
    stats = benchmark.stats.stats
    requests_per_s = summary.n_requests / stats.mean
    print(
        f"\nservice replay (jobs={jobs}): {summary.n_requests} requests "
        f"in {stats.mean:.2f}s (mean of {stats.rounds}) = "
        f"{requests_per_s:,.0f} req/s, "
        f"cache hit rate {summary.cache_hit_rate:.2%}, "
        f"P(block) {summary.blocking_probability:.4f}"
    )
    assert summary.boundary_violations == 0
    assert summary.cache_hit_rate > 0.99

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "experiment": "service_replay",
        "scale": None,
        "rounds": stats.rounds,
        "jobs": jobs,
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
        "requests": summary.n_requests,
        "requests_per_s": requests_per_s,
        "cache_hit_rate": summary.cache_hit_rate,
    }
    record.update(percentiles_from_rounds(stats.sorted_data))
    append_timing_row(TIMINGS_PATH, record)


def _replay_one_link():
    spec = WorkloadSpec(
        n_requests=TELEMETRY_REQUESTS,
        arrival_rate=0.4,
        mean_holding_time=90.0,
    )
    classes, qos = _classes_and_qos()
    return replay_link(
        spec,
        classes,
        capacity=CAPACITY,
        qos=qos,
        policy="bahadur-rao",
        rng=20260806,
    )


def test_service_replay_telemetry(benchmark):
    """Telemetry off and on, alternating within each round.

    The two sides run back to back with their order swapped every
    round, so drift in host speed lands on both instead of on
    whichever side ran second.
    """
    seconds = {False: [], True: []}
    outcome = {}

    def one_round():
        first_on = len(seconds[False]) % 2 == 1
        for telemetry in (first_on, not first_on):
            obs.reset()
            if telemetry:
                obs.enable()
            try:
                started = time.perf_counter()
                outcome[telemetry] = _replay_one_link()
                seconds[telemetry].append(time.perf_counter() - started)
                if telemetry:
                    counters = {
                        d["name"]: d["value"]
                        for d in obs.metrics.snapshot()
                        if d["type"] == "counter"
                    }
            finally:
                obs.disable()
                obs.reset()
        # Recording must not change a decision, and must publish each.
        assert outcome[True] == outcome[False]
        assert counters["service.admitted"] == outcome[True].admitted

    _replay_one_link()  # warm caches and imports outside the rounds
    benchmark.pedantic(
        one_round, rounds=TELEMETRY_ROUNDS, iterations=1, warmup_rounds=0
    )
    stats_link = outcome[False]
    assert stats_link.boundary_violations == 0

    RESULTS_DIR.mkdir(exist_ok=True)
    for telemetry in (False, True):
        rounds = seconds[telemetry]
        mean_s = statistics.fmean(rounds)
        requests_per_s = stats_link.n_requests / mean_s
        side = "on" if telemetry else "off"
        print(
            f"\nservice replay_link, telemetry {side}: "
            f"{stats_link.n_requests} requests in {mean_s:.3f}s "
            f"(mean of {len(rounds)}) = {requests_per_s:,.0f} req/s"
        )
        record = {
            "experiment": "service_replay_telemetry",
            "scale": f"link1x{TELEMETRY_REQUESTS}:{side}",
            "rounds": len(rounds),
            "jobs": 1,
            "mean_s": mean_s,
            "min_s": min(rounds),
            "max_s": max(rounds),
            "stddev_s": statistics.stdev(rounds),
            "requests": stats_link.n_requests,
            "requests_per_s": requests_per_s,
            "telemetry": side,
            "cpu_count": os.cpu_count(),
            "layer": "replay",
        }
        record.update(percentiles_from_rounds(sorted(rounds)))
        append_timing_row(TIMINGS_PATH, record)


@pytest.mark.parametrize(
    "class_name,rho", [("conference", 0.6), ("video", 1.2)]
)
def test_service_replay_load(benchmark, tmp_path, class_name, rho):
    classes = (build_class(class_name),)
    capacity = mbps_to_cells_per_frame(155.52)
    qos = QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)
    table_path = tmp_path / "tables.jsonl"
    admissible = (
        DecisionTableCache(path=table_path)
        .lookup(classes[0].model, capacity, qos, "bahadur-rao")
        .admissible
    )
    spec = WorkloadSpec(
        n_requests=LOAD_REQUESTS,
        arrival_rate=derive_arrival_rate(rho, admissible, HOLDING_SECONDS),
        mean_holding_time=HOLDING_SECONDS,
    )

    def replay():
        return replay_workload(
            spec,
            classes,
            n_links=LOAD_LINKS,
            capacity=capacity,
            qos=qos,
            policy="bahadur-rao",
            rng=20260806,
            table_path=table_path,
        )

    summary = benchmark.pedantic(
        replay, rounds=LOAD_ROUNDS, iterations=1, warmup_rounds=1
    )
    assert summary.boundary_violations == 0
    stats = benchmark.stats.stats
    requests_per_s = summary.n_requests / stats.median
    print(
        f"\nservice replay, {LOAD_LINKS} {class_name} links (N = "
        f"{admissible}) at rho {rho}: {summary.n_requests} requests, "
        f"median {stats.median:.3f}s = {requests_per_s:,.0f} req/s, "
        f"P(block) {summary.blocking_probability:.4f}"
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "experiment": "service_replay_load",
        "scale": f"{class_name}{LOAD_LINKS}x{LOAD_REQUESTS}@rho{rho}",
        "rounds": LOAD_ROUNDS,
        "jobs": 1,
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
        "requests": summary.n_requests,
        "requests_per_s": requests_per_s,
        "blocking_probability": summary.blocking_probability,
        "cpu_count": os.cpu_count(),
        "telemetry": "on" if obs.is_enabled() else "off",
        "layer": "replay",
    }
    record.update(percentiles_from_rounds(stats.sorted_data))
    append_timing_row(TIMINGS_PATH, record)
