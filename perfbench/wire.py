"""The served workload: ``runner serve`` driven over loopback.

The server runs in its own process exactly as ``runner serve`` ships
it (4 links, ``video`` + ``conference`` under effective bandwidth, one
shard).  The benchmark is the client, on two connections; connection
``c`` carries links ``2c`` and ``2c + 1``, so each link's requests
reach the server in the order they were generated.

The request stream comes from a seeded ``generate_workload`` at
rho = 0.9 per link.  Before any request is sent, an in-process
:class:`~repro.service.frontend.AdmissionFrontend` with the server's
configuration decides the whole stream: releases go only to
connections it admitted, and its decisions are the responses the
server must give, byte for byte or as the same JSON object.  Every link ends
the stream with all of its connections released.

A session runs a closed-loop phase with a fixed pipeline window per
connection, then open-loop phases at fixed total rates.  Open-loop
requests are timed from when they were due, so a stall also counts
against the requests queued behind it; the generator's lateness is
reported beside them.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import host

ROOT = Path(__file__).resolve().parent.parent

RHO = 0.9
N_CONNECTIONS = 2
N_LINKS = 4
#: Requests in flight per connection in the closed-loop phase.  Deep
#: enough that each process finds a batch waiting when it wakes: at 16
#: the closed-loop rate followed the hypervisor's CPU steal (10.7k
#: req/s with 11 s of steal in a run, 18-20k with 3 s), at 256 three
#: runs read 23-24k with 3.5-7 s of steal.
WINDOW = 256
#: Fixed total request rates of the open-loop phases (req/s).
OPEN_RATES = (2000, 5000, 10000, 15000)
#: Rate whose admit latency is reported as admit_p50_us/admit_p99_us.
REPORTED_RATE = 5000
#: Latency limit on the p99 of each open-loop phase.
SLO_P99_SECONDS = 0.005
#: Share of a session spent in the closed-loop phase; the open-loop
#: phases split the rest.
CLOSED_SHARE = 0.6
#: The closed-loop phase runs in segments of this length, each drained
#: and preceded by a host-speed sample (see ``host.py``): the server's
#: CPU per request swung between 25 and 46 us across 2 s windows of one
#: process, and both processes slowed together.
SEGMENT_SECONDS = 0.5
#: Events the closed-loop phase may consume per second of its length;
#: a server faster than this ends the phase early, which the measured
#: rate still reflects.
CLOSED_EVENTS_PER_S = 40000
#: How long a phase waits for its last responses.
DRAIN_TIMEOUT_S = 5.0

SERVE_ARGS = (
    "--links", str(N_LINKS),
    "--class", "video",
    "--class", "conference",
    "--policy", "effective-bandwidth",
    "--shards", "1",
    "--port", "0",
)


@dataclass
class Stream:
    """One connection's requests with the responses they must get."""

    requests: List[bytes] = field(default_factory=list)
    expected: List[bytes] = field(default_factory=list)
    is_admit: List[bool] = field(default_factory=list)


def phase_plan(seconds: float) -> Tuple[float, float]:
    """(closed-loop seconds, seconds per open-loop phase)."""
    closed = seconds * CLOSED_SHARE
    return closed, (seconds - closed) / len(OPEN_RATES)


def events_needed(seconds: float) -> int:
    """Stream events one session can consume, across connections."""
    closed, per_open = phase_plan(seconds)
    return int(
        CLOSED_EVENTS_PER_S * closed
        + sum(rate * per_open for rate in OPEN_RATES)
    ) + 64


def build_streams(seed: int, seconds: float) -> List[Stream]:
    """Per-connection streams long enough for one session at ``seconds``."""
    from repro.service import (
        AdmissionFrontend,
        WorkloadSpec,
        derive_arrival_rate,
        generate_workload,
    )
    from repro.service.cli import build_class
    from repro.utils.rng import spawn_generators

    from workloads import _service_link

    capacity, qos = _service_link()
    classes = [build_class("video"), build_class("conference")]
    link_ids = [f"link-{i}" for i in range(N_LINKS)]
    frontend = AdmissionFrontend(
        classes,
        link_ids,
        capacity=capacity,
        qos=qos,
        policy="effective-bandwidth",
        n_shards=1,
        publish=False,
    )
    admissible = frontend.boundary("video")
    # An admitted arrival is two events and a blocked one is one, so
    # 1.5 events per arrival leaves a margin at any blocking ratio
    # below one half.
    per_link = int(events_needed(seconds) / N_LINKS / 1.5) + 16
    spec = WorkloadSpec(
        n_requests=per_link,
        arrival_rate=derive_arrival_rate(RHO, admissible, 90.0),
        mean_holding_time=90.0,
    )
    names = [c.name for c in classes]
    release_response = json.dumps({"ok": True}, sort_keys=True).encode()
    link_events: List[list] = []
    for link_index, generator in enumerate(spawn_generators(seed, N_LINKS)):
        link = link_ids[link_index]
        shard = frontend.shard_of(link)
        workload = generate_workload(spec, classes, generator)
        events = []
        departures: list = []

        def release_until(now):
            while departures and departures[0][0] <= now:
                departed, conn = heapq.heappop(departures)
                frontend.release(link, conn)
                events.append(
                    (
                        departed,
                        f'{{"op": "release", "link": "{link}", '
                        f'"conn": "{conn}"}}\n'.encode(),
                        release_response,
                        False,
                    )
                )

        for j in range(workload.n_requests):
            now = float(workload.arrival_times[j])
            release_until(now)
            conn = f"c{j}"
            name = names[int(workload.class_indices[j])]
            decision = frontend.admit(link, name, conn)
            # The server's json.dumps(sort_keys=True) of its response;
            # one formatted otherwise must parse to the same object.
            response = (
                f'{{"admissible": {decision.admissible}, '
                f'"admitted": {"true" if decision.admitted else "false"}, '
                f'"fallback": {"true" if decision.fallback else "false"}, '
                f'"occupancy": {decision.occupancy}, "ok": true, '
                f'"reason": "{decision.reason}", "shard": {shard}}}'
            )
            events.append(
                (
                    now,
                    f'{{"op": "admit", "link": "{link}", "class": "{name}", '
                    f'"conn": "{conn}"}}\n'.encode(),
                    response.encode(),
                    True,
                )
            )
            if decision.admitted:
                heapq.heappush(
                    departures,
                    (now + float(workload.holding_times[j]), conn),
                )
        release_until(float("inf"))
        link_events.append(events)
    frontend.close()

    streams = []
    for c in range(N_CONNECTIONS):
        mine = link_events[c * N_LINKS // N_CONNECTIONS:
                           (c + 1) * N_LINKS // N_CONNECTIONS]
        stream = Stream()
        for _, request, expected, is_admit in heapq.merge(
            *mine, key=lambda e: e[0]
        ):
            stream.requests.append(request)
            stream.expected.append(expected)
            stream.is_admit.append(is_admit)
        streams.append(stream)
    return streams


# -- the server process --------------------------------------------------------


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """A ``runner serve`` process (or the traced launcher around it)."""

    def __init__(self, trace_out: Optional[Path] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        if trace_out is None:
            command = [sys.executable, "-m", "repro.experiments.runner",
                       "serve", *SERVE_ARGS]
        else:
            command = [sys.executable,
                       str(ROOT / "perfbench" / "traced_server.py"),
                       "--trace-out", str(trace_out), "--", *SERVE_ARGS]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE
        )
        try:
            self.host, self.port = self._await_ready(timeout=120.0)
        except BaseException:
            self.stop()
            raise
        self.ready_seconds = time.perf_counter() - started

    def _await_ready(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not report ready in time")
            readable, _, _ = select.select([stdout], [], [], remaining)
            if not readable:
                continue
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                raise RuntimeError(
                    f"server exited with {self.process.wait()} before ready"
                )
            if line.startswith("frontend listening on "):
                address = line.split()[3]
                name, _, port = address.rpartition(":")
                return name, int(port)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> bool:
        """SIGINT the server and wait; True when it exited cleanly.

        SIGINT, not SIGTERM: the serve verb unlinks its shared-memory
        table snapshot on the KeyboardInterrupt path.
        """
        clean = True
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.communicate()
                clean = False
        else:
            self.process.communicate()
        return clean and self.process.returncode == 0


# -- the client ---------------------------------------------------------------


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


class _Connection:
    def __init__(self, reader, writer, stream: Stream):
        self.reader = reader
        self.writer = writer
        self.stream = stream
        #: Next stream index to send / to receive.
        self.sent = 0
        self.received = 0
        self.failures: List[str] = []
        self._partial = b""

    async def read_lines(self) -> List[bytes]:
        """The complete response lines that have arrived, at least one.

        Reading whatever the socket holds, rather than a line per
        call, keeps the client's cost per response small beside the
        server's.
        """
        while True:
            data = await self.reader.read(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            lines = (self._partial + data).split(b"\n")
            self._partial = lines.pop()
            if lines:
                return lines

    def check(self, index: int, line: bytes) -> bool:
        expected = self.stream.expected[index]
        if line == expected:
            return True
        try:
            got = json.loads(line)
            want = json.loads(expected)
        except ValueError:
            got, want = None, {}
        # Only key order and white space may differ from the bytes.
        if got == want:
            return True
        if len(self.failures) < 5:
            self.failures.append(
                f"response {index}: got {line[:200]!r}, "
                f"expected {expected[:200]!r}"
            )
        return False


@dataclass
class Phase:
    rate: Optional[int]
    requests: int = 0
    failed: int = 0
    seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    admit_latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    backlog: List[int] = field(default_factory=list)
    missing: int = 0
    @property
    def achieved_rps(self) -> float:
        return self.requests / self.seconds if self.seconds else 0.0

    def backlog_growing(self) -> bool:
        if len(self.backlog) < 8:
            return False
        quarter = len(self.backlog) // 4
        first = sorted(self.backlog[:quarter])[quarter // 2]
        last = sorted(self.backlog[-quarter:])[quarter // 2]
        return last > 2 * first + 8

    def meets_slo(self) -> bool:
        return (
            self.failed == 0
            and self.missing == 0
            and _percentile(self.latencies, 0.99) <= SLO_P99_SECONDS
            and not self.backlog_growing()
        )

    def summary(self) -> dict:
        return {
            "rate": self.rate,
            "requests": self.requests,
            "failed": self.failed + self.missing,
            "achieved_rps": self.achieved_rps,
            "p50_us": _percentile(self.latencies, 0.5) * 1e6,
            "p99_us": _percentile(self.latencies, 0.99) * 1e6,
            "admit_p50_us": _percentile(self.admit_latencies, 0.5) * 1e6,
            "admit_p99_us": _percentile(self.admit_latencies, 0.99) * 1e6,
            "admit_samples": len(self.admit_latencies),
            "lag_p99_ms": _percentile(self.lags, 0.99) * 1e3,
            "backlog_max": max(self.backlog, default=0),
            "meets_slo": self.meets_slo() if self.rate else None,
        }


async def _closed_connection(conn: _Connection, end: int, deadline: float,
                             phase: Phase) -> None:
    """Keep ``WINDOW`` requests in flight until ``deadline`` or stream
    index ``end``, then drain."""
    stream = conn.stream
    end = min(end, len(stream.requests))
    first = min(conn.sent + WINDOW, end)
    conn.writer.write(b"".join(stream.requests[conn.sent:first]))
    conn.sent = first
    clock = time.perf_counter
    while conn.received < conn.sent:
        lines = await conn.read_lines()
        for line in lines:
            if not conn.check(conn.received, line):
                phase.failed += 1
            conn.received += 1
        phase.requests += len(lines)
        refill = min(conn.received + WINDOW, end)
        if refill > conn.sent and clock() < deadline:
            conn.writer.write(b"".join(stream.requests[conn.sent:refill]))
            conn.sent = refill


async def _open_sender(conn: _Connection, count: int, start: float,
                       interval: float, due: List[float],
                       phase: Phase) -> None:
    stream = conn.stream
    base = conn.sent
    clock = time.perf_counter
    k = 0
    while k < count:
        now = clock()
        next_due = start + k * interval
        if now < next_due:
            await asyncio.sleep(next_due - now)
            now = clock()
        last = min(count, int((now - start) / interval) + 1)
        for i in range(k, last):
            due.append(start + i * interval)
            phase.lags.append(now - (start + i * interval))
        conn.writer.write(b"".join(stream.requests[base + k:base + last]))
        conn.sent = base + last
        phase.backlog.append(conn.sent - conn.received)
        k = last


async def _open_receiver(conn: _Connection, count: int, due: List[float],
                         phase: Phase) -> None:
    stream = conn.stream
    base = conn.received
    clock = time.perf_counter
    k = 0
    while k < count:
        lines = await conn.read_lines()
        now = clock()
        for line in lines:
            index = base + k
            latency = now - due[k]
            if not conn.check(index, line):
                phase.failed += 1
                latency = float("inf")
            phase.latencies.append(latency)
            if stream.is_admit[index]:
                phase.admit_latencies.append(latency)
            k += 1
        conn.received = base + k
        phase.requests += len(lines)


async def _session(address: str, port: int, streams: List[Stream],
                   seconds: float, server_pid: int) -> dict:
    closed_s, open_s = phase_plan(seconds)
    conns = []
    for stream in streams:
        reader, writer = await asyncio.open_connection(address, port)
        conns.append(_Connection(reader, writer, stream))
    try:
        server_cpu = process_cpu_seconds(server_pid)
        # Client CPU outside the host-speed samples.
        client_cpu = 0.0

        # Closed loop, in segments: (responses/s, host speed before,
        # unstolen CPU share during).
        closed = Phase(rate=None)
        segments = []
        end = int(CLOSED_EVENTS_PER_S * closed_s) // len(conns)
        started = time.perf_counter()
        while time.perf_counter() - started < closed_s and all(
            c.sent < end for c in conns
        ):
            speed = host.speed()
            segment = Phase(rate=None)
            cpu = time.process_time()
            accounts = host.cpu_accounts()
            begun = time.perf_counter()
            await asyncio.gather(
                *(_closed_connection(c, end, begun + SEGMENT_SECONDS,
                                     segment)
                  for c in conns)
            )
            elapsed = time.perf_counter() - begun
            unstolen = host.unstolen_share(accounts, host.cpu_accounts())
            client_cpu += time.process_time() - cpu
            segments.append((segment.requests / elapsed, speed, unstolen))
            closed.requests += segment.requests
            closed.failed += segment.failed
        closed.seconds = time.perf_counter() - started
        speeds = [speed for _, speed, _ in segments] + [host.speed()]
        # Each segment is scaled by the mean of the samples around it.
        corrected = [
            rate / host.time_factor(
                (speeds[i] + speeds[i + 1]) / 2, unstolen
            )
            for i, (rate, _, unstolen) in enumerate(segments)
        ]

        phases = []
        for rate in OPEN_RATES:
            phase = Phase(rate=rate)
            per_conn = int(rate * open_s) // len(conns)
            interval = len(conns) / rate
            if any(c.sent + per_conn > len(c.stream.requests) for c in conns):
                raise RuntimeError("request stream too short for the phase")
            cpu = time.process_time()
            start = time.perf_counter() + 0.01
            tasks = []
            for i, conn in enumerate(conns):
                due: List[float] = []
                offset = start + i * interval / len(conns)
                tasks.append(asyncio.ensure_future(
                    _open_receiver(conn, per_conn, due, phase)))
                tasks.append(asyncio.ensure_future(
                    _open_sender(conn, per_conn, offset, interval, due,
                                 phase)))
            done, pending = await asyncio.wait(
                tasks, timeout=open_s + DRAIN_TIMEOUT_S
            )
            phase.seconds = time.perf_counter() - start
            client_cpu += time.process_time() - cpu
            for task in done:
                task.result()
            if pending:
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                phase.missing = per_conn * len(conns) - phase.requests
                phases.append(phase)
                break  # the connections are out of step; stop here
            phases.append(phase)

        server_cpu = process_cpu_seconds(server_pid) - server_cpu
    finally:
        for conn in conns:
            conn.writer.close()
        for conn in conns:
            try:
                await conn.writer.wait_closed()
            except ConnectionError:
                pass

    # Requests an aborted phase (or one after it) never got back count
    # as failed: a missing response misses every latency limit.
    planned = sum(
        int(rate * open_s) // len(conns) * len(conns) for rate in OPEN_RATES
    )
    open_received = sum(p.requests for p in phases)
    requests = closed.requests + open_received
    attempted = closed.requests + planned
    failed = (
        closed.failed
        + sum(p.failed for p in phases)
        + (planned - open_received)
    )
    passing = [p.rate for p in phases if p.meets_slo()]
    reported = next((p for p in phases if p.rate == REPORTED_RATE), None)
    lags = [lag for p in phases for lag in p.lags]
    failures = [f for c in conns for f in c.failures if f][:5]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "requests": requests,
        "wire_rps": statistics.median(rate for rate, _, _ in segments),
        "wire_rps_corrected": statistics.median(corrected),
        "unstolen_shares": [unstolen for _, _, unstolen in segments],
        "host_speeds": speeds,
        "closed_segments": len(segments),
        "closed_achieved_rps": closed.achieved_rps,
        "closed_requests": closed.requests,
        "admit_p50_us": (
            reported.summary()["admit_p50_us"] if reported else float("nan")
        ),
        "admit_p99_us": (
            reported.summary()["admit_p99_us"] if reported else float("nan")
        ),
        "max_rps_under_slo": max(passing, default=0),
        "generator_lag_ms": _percentile(lags, 0.99) * 1e3,
        "backlog_max": max((max(p.backlog, default=0) for p in phases),
                           default=0),
        "server_cpu_s": server_cpu,
        "client_cpu_s": client_cpu,
        "server_cpu_us_per_req": server_cpu / requests * 1e6
        if requests else 0.0,
        "client_cpu_us_per_req": client_cpu / requests * 1e6
        if requests else 0.0,
        "phases": [p.summary() for p in phases],
    }


def run_session(server: Server, streams: List[Stream],
                seconds: float) -> dict:
    """One closed-loop plus open-loop session against ``server``."""
    return asyncio.run(
        _session(server.host, server.port, streams, seconds, server.pid)
    )
