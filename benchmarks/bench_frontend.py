"""Throughput of the sharded frontend's open-loop rho drive.

Drives the consistent-hash frontend at one rho point, serially and
across two warm worker shards, printing aggregate decisions/second and
p50/p99/p999 admit latency, and appending one schema-2 row per
configuration to ``benchmarks/results/timings.jsonl`` (experiment
``frontend_drive``, ``layer: "drive"``).  Decision counters are
byte-identical between the two configurations — only wall-clock
differs — so the rows ride the same ``obs compare`` gate as the replay
benchmarks.  Each configuration times ``DRIVE_ROUNDS`` rounds after
one warm-up round: single rounds of one configuration read anywhere
from 63k to 174k req/s on a 2-vCPU host.  ``drive()`` steps every
request with telemetry on (it enables telemetry for its run), so the
rows say ``telemetry: "on"``.

The ISSUE-9 throughput target (>= 1M aggregate decisions/s on 4
cores, i.e. >= 250k/core) is asserted only on hosts with at least 4
cores *and* ``REPRO_PAPER_BENCH=1`` — the admission hot path is the
same engine loop everywhere, but small CI boxes measure scheduler
noise, not the engine.

``test_frontend_wire`` times the wire instead: an in-process
:class:`~repro.service.frontend.FrontendServer` on loopback, one
connection pipelining a seeded admit/release stream with
``WIRE_WINDOW`` requests in flight, every response checked byte for
byte against what an in-process ``AdmissionFrontend`` decided.  Client
and server share one event loop, so its rate is the wire path's plus
the client's cost.  Its row (experiment ``frontend_wire``, ``layer:
"wire"``) rides the ``obs compare`` gate.
"""

import asyncio
import heapq
import json
import os

import pytest

from conftest import RESULTS_DIR, TIMINGS_PATH

from repro import obs
from repro.obs.timings import append_timing_row, percentiles_from_rounds

from repro.atm.qos import QoSRequirement
from repro.models import make_s
from repro.parallel import warm_pool
from repro.service.drive import derive_arrival_rate, drive
from repro.service.frontend import AdmissionFrontend, FrontendServer
from repro.service.workload import (
    ConnectionClass,
    WorkloadSpec,
    generate_workload,
)
from repro.utils.rng import spawn_generators

N_REQUESTS = 20_000
N_LINKS = 4
CAPACITY = 30 * 538.0
RHO = 0.9
DRIVE_ROUNDS = 5

PER_CORE_TARGET = 250_000.0


def _classes():
    return (ConnectionClass("dar1", make_s(1, 0.975)),)


def _qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


def _drive(jobs):
    return drive(
        _classes(),
        n_links=N_LINKS,
        capacity=CAPACITY,
        qos=_qos(),
        policy="bahadur-rao",
        rho_grid=(RHO,),
        requests_per_link=N_REQUESTS // N_LINKS,
        seed=20260806,
        jobs=None if jobs == 1 else jobs,
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_frontend_drive(benchmark, jobs):
    if jobs > 1:
        warm_pool(jobs).warm()
    report = benchmark.pedantic(
        _drive,
        args=(jobs,),
        rounds=DRIVE_ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    stats = benchmark.stats.stats
    point = report.points[0]
    requests_per_s = report.n_requests / stats.median
    latency = point.admit_latency_ns
    print(
        f"\nfrontend drive (jobs={jobs}, rho={RHO}): "
        f"{report.n_requests} decisions, median {stats.median:.3f}s = "
        f"{requests_per_s:,.0f} req/s end-to-end; shard-loop rate "
        f"{point.decisions_per_second:,.0f}/s; admit latency "
        f"p50 {latency['p0.5']:.0f}ns p99 {latency['p0.99']:.0f}ns "
        f"p999 {latency['p0.999']:.0f}ns"
    )
    assert report.boundary_violations == 0

    cores = os.cpu_count() or 1
    if cores >= 4 and os.environ.get("REPRO_PAPER_BENCH"):
        # The aggregate-throughput floor, scaled to the cores the
        # drive actually used (1M/s on 4 cores = 250k/core/s).
        assert point.decisions_per_second >= PER_CORE_TARGET * jobs

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "experiment": "frontend_drive",
        "scale": f"links{N_LINKS}@rho{RHO}",
        "rounds": DRIVE_ROUNDS,
        "jobs": jobs,
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
        "requests": report.n_requests,
        "requests_per_s": requests_per_s,
        "admit_p99_ns": latency["p0.99"],
        "cpu_count": os.cpu_count(),
        "telemetry": "on",
        "layer": "drive",
    }
    record.update(percentiles_from_rounds(stats.sorted_data))
    append_timing_row(TIMINGS_PATH, record)


WIRE_ARRIVALS_PER_LINK = 5_000
WIRE_HOLDING_S = 90.0
WIRE_WINDOW = 256
WIRE_ROUNDS = 5
WIRE_SEED = 20261019


def _wire_frontend():
    return AdmissionFrontend(
        _classes(),
        [f"link-{i}" for i in range(N_LINKS)],
        capacity=CAPACITY,
        qos=_qos(),
        policy="bahadur-rao",
        n_shards=2,
    )


def _wire_stream():
    """The seeded request lines and the response lines they must get.

    Each link's arrivals come from ``generate_workload`` at ``RHO``;
    an in-process frontend decides them as the stream is built, and
    every admitted connection is released at its departure time.
    Responses are ``json.dumps(sort_keys=True)`` of that decision.
    """
    classes = _classes()
    reference = _wire_frontend()
    spec = WorkloadSpec(
        n_requests=WIRE_ARRIVALS_PER_LINK,
        arrival_rate=derive_arrival_rate(
            RHO, reference.boundary("dar1"), WIRE_HOLDING_S
        ),
        mean_holding_time=WIRE_HOLDING_S,
    )
    released = json.dumps({"ok": True}, sort_keys=True).encode()
    per_link = []
    for index, generator in enumerate(
        spawn_generators(WIRE_SEED, N_LINKS)
    ):
        link = f"link-{index}"
        workload = generate_workload(spec, classes, generator)
        events, departures = [], []

        def release_until(now):
            while departures and departures[0][0] <= now:
                departed, conn = heapq.heappop(departures)
                reference.release(link, conn)
                request = {"op": "release", "link": link, "conn": conn}
                events.append((departed, request, released))

        for j in range(workload.n_requests):
            now = float(workload.arrival_times[j])
            release_until(now)
            conn = f"c{j}"
            decision = reference.admit(link, "dar1", conn)
            response = {
                "ok": True,
                "admitted": decision.admitted,
                "reason": decision.reason,
                "admissible": decision.admissible,
                "occupancy": decision.occupancy,
                "shard": reference.shard_of(link),
                "fallback": decision.fallback,
            }
            request = {"op": "admit", "link": link, "class": "dar1",
                       "conn": conn}
            events.append(
                (now, request, json.dumps(response, sort_keys=True).encode())
            )
            if decision.admitted:
                heapq.heappush(
                    departures, (now + float(workload.holding_times[j]), conn)
                )
        release_until(float("inf"))
        per_link.append(events)
    requests, expected = [], []
    for _, request, response in heapq.merge(
        *per_link, key=lambda event: event[0]
    ):
        requests.append((json.dumps(request) + "\n").encode())
        expected.append(response)
    return requests, expected


async def _wire_round(frontend, requests, expected):
    """Pipeline ``requests`` over one connection; check every answer."""
    server = await FrontendServer(frontend).start()
    try:
        reader, writer = await asyncio.open_connection(
            server.host, server.port
        )
        try:
            sent = min(WIRE_WINDOW, len(requests))
            writer.write(b"".join(requests[:sent]))
            received, partial = 0, b""
            while received < len(requests):
                data = await reader.read(1 << 16)
                if not data:
                    raise ConnectionError("server closed the connection")
                lines = (partial + data).split(b"\n")
                partial = lines.pop()
                for line in lines:
                    if line != expected[received]:
                        raise AssertionError(
                            f"response {received}: got {line!r}, "
                            f"expected {expected[received]!r}"
                        )
                    received += 1
                refill = min(received + WIRE_WINDOW, len(requests))
                if refill > sent:
                    writer.write(b"".join(requests[sent:refill]))
                    sent = refill
        finally:
            writer.close()
    finally:
        await server.stop()
    return received


def test_frontend_wire(benchmark):
    requests, expected = _wire_stream()
    answered = benchmark.pedantic(
        lambda frontend: asyncio.run(
            _wire_round(frontend, requests, expected)
        ),
        setup=lambda: ((_wire_frontend(),), {}),
        rounds=WIRE_ROUNDS,
        iterations=1,
    )
    assert answered == len(requests)
    stats = benchmark.stats.stats
    requests_per_s = len(requests) / stats.median
    print(
        f"\nfrontend wire ({N_LINKS} links, window {WIRE_WINDOW}): "
        f"{len(requests)} requests per round, median "
        f"{stats.median:.3f}s = {requests_per_s:,.0f} responses/s"
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "experiment": "frontend_wire",
        "scale": f"links{N_LINKS}x{WIRE_ARRIVALS_PER_LINK}"
                 f"@window{WIRE_WINDOW}",
        "rounds": WIRE_ROUNDS,
        "jobs": 1,
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
        "requests": len(requests),
        "requests_per_s": requests_per_s,
        "cpu_count": os.cpu_count(),
        "telemetry": "on" if obs.is_enabled() else "off",
        "layer": "wire",
    }
    record.update(percentiles_from_rounds(stats.sorted_data))
    append_timing_row(TIMINGS_PATH, record)
