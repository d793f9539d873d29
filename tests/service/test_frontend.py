"""Tests for the sharded admission frontend.

Load-bearing properties: consistent-hash placement is a pure function
of (link id, shard count, replicas); every shard's cache, loaded from
the table snapshot's text, reproduces the staged decision table
exactly; the in-process API and the asyncio wire protocol reach the
same engine state; and overload semantics flow through unchanged.
"""

import asyncio
import itertools
import json
import random

import pytest

from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.models import make_s
from repro.service import engine as engine_module
from repro.service.engine import AdmissionDecision
from repro.service.frontend import (
    MAX_LINE_BYTES,
    AdmissionFrontend,
    ConsistentHashRing,
    FrontendServer,
    build_table_snapshot,
)
from repro.service.overload import OverloadPolicy
from repro.service.workload import ConnectionClass

CAPACITY = 30 * 538.0


@pytest.fixture
def qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


@pytest.fixture
def classes():
    return (ConnectionClass("dar1", make_s(1, 0.975)),)


def _frontend(classes, qos, **kwargs):
    kwargs.setdefault("n_shards", 2)
    return AdmissionFrontend(
        classes,
        ["link-0", "link-1", "link-2", "link-3"],
        capacity=CAPACITY,
        qos=qos,
        **kwargs,
    )


class TestConsistentHashRing:
    def test_placement_is_deterministic_across_instances(self):
        keys = [f"link-{i}" for i in range(64)]
        a = ConsistentHashRing(4, replicas=64)
        b = ConsistentHashRing(4, replicas=64)
        assert [a.shard_for(k) for k in keys] == [
            b.shard_for(k) for k in keys
        ]

    def test_assign_partitions_the_keys(self):
        keys = [f"link-{i}" for i in range(32)]
        groups = ConsistentHashRing(4).assign(keys)
        assert len(groups) == 4
        flat = [k for group in groups for k in group]
        assert sorted(flat) == sorted(keys)
        for shard, group in enumerate(groups):
            ring = ConsistentHashRing(4)
            for key in group:
                assert ring.shard_for(key) == shard

    def test_single_shard_owns_everything(self):
        ring = ConsistentHashRing(1)
        assert {ring.shard_for(f"link-{i}") for i in range(16)} == {0}

    def test_load_spreads_across_shards(self):
        # 256 keys on 4 shards: consistent hashing is not a perfect
        # partition, but no shard should be empty and no shard should
        # swallow the ring.
        ring = ConsistentHashRing(4, replicas=64)
        counts = [0, 0, 0, 0]
        for i in range(256):
            counts[ring.shard_for(f"link-{i}")] += 1
        assert min(counts) > 0
        assert max(counts) < 256

    def test_rejects_bad_shapes(self):
        with pytest.raises(ParameterError):
            ConsistentHashRing(0)
        with pytest.raises(ParameterError):
            ConsistentHashRing(2, replicas=0)


class TestTableSnapshot:
    def test_snapshot_round_trips_the_staged_table(self, classes, qos):
        text = build_table_snapshot(
            classes, capacity=CAPACITY, qos=qos, policy="bahadur-rao"
        )
        assert text
        # Both the primary policy and the breaker fallback are staged.
        from repro.service.tables import DecisionTableCache

        cache = DecisionTableCache(path=None)
        cache.load_text(text)
        primary = cache.lookup(
            classes[0].model, CAPACITY, qos, "bahadur-rao"
        )
        assert primary.admissible > 0
        assert cache.stats()["hits"] >= 1

    def test_published_and_private_snapshots_agree(self, classes, qos):
        # ``publish=`` is an ignored keyword: either way every shard
        # loads its cache from the same snapshot text.
        with _frontend(classes, qos, publish=True) as published, _frontend(
            classes, qos, publish=False
        ) as private:
            assert published.table_text == private.table_text
            for frontend in (published, private):
                assert [t.dump_text() for t in frontend._tables] == [
                    frontend.table_text
                ] * 2


class TestAdmissionFrontend:
    def test_rejects_duplicate_links(self, classes, qos):
        with pytest.raises(ParameterError, match="unique"):
            AdmissionFrontend(
                classes,
                ["link-0", "link-0"],
                capacity=CAPACITY,
                qos=qos,
            )

    def test_admit_release_cycle(self, classes, qos):
        with _frontend(classes, qos) as frontend:
            boundary = frontend.boundary("dar1")
            assert boundary > 0
            for i in range(boundary):
                decision = frontend.admit("link-0", "dar1", f"c{i}")
                assert decision.admitted
            overflow = frontend.admit("link-0", "dar1", "c-overflow")
            assert not overflow.admitted
            assert frontend.occupancy("link-0") == boundary
            # Other links are untouched by link-0's saturation.
            assert frontend.admit("link-1", "dar1", "c0").admitted
            frontend.release("link-0", "c0")
            assert frontend.occupancy("link-0") == boundary - 1
            stats = frontend.stats()
            assert stats.admitted == boundary + 1
            assert stats.blocked == 1
            assert stats.released == 1
            assert stats.requests == boundary + 2
            assert stats.n_links == 4
            assert stats.to_dict()["admitted"] == boundary + 1

    def test_every_link_routes_to_its_ring_shard(self, classes, qos):
        with _frontend(classes, qos, n_shards=3) as frontend:
            ring = ConsistentHashRing(3, replicas=64)
            for link_id in frontend.link_ids:
                assert frontend.shard_of(link_id) == ring.shard_for(link_id)

    def test_unknown_link_and_class_rejected(self, classes, qos):
        with _frontend(classes, qos) as frontend:
            with pytest.raises(ParameterError, match="unknown link"):
                frontend.admit("link-9", "dar1", "c0")
            with pytest.raises(ParameterError, match="unknown class"):
                frontend.admit("link-0", "cbr", "c0")

    def test_overload_shedding_reaches_the_counters(self, classes, qos):
        policy = OverloadPolicy(max_queue_depth=1, decision_seconds=10.0)
        with _frontend(classes, qos, overload=policy) as frontend:
            outcomes = [
                frontend.admit("link-0", "dar1", f"c{i}", now=0.0)
                for i in range(8)
            ]
            shed = [d for d in outcomes if d.reason == "shed"]
            assert shed, "a 10s decision budget with queue 1 must shed"
            assert frontend.stats().shed == len(shed)

    def test_overload_is_per_link_on_a_shared_shard(self, classes, qos):
        # Two links on one shard: link-0 saturating its decision queue
        # must not shed link-1's request at the same instant.
        policy = OverloadPolicy(max_queue_depth=1, decision_seconds=10)
        with AdmissionFrontend(
            classes,
            ["link-0", "link-1"],
            capacity=CAPACITY,
            qos=qos,
            n_shards=1,
            overload=policy,
        ) as frontend:
            assert frontend.shard_of("link-0") == frontend.shard_of("link-1")
            assert frontend.admit("link-0", "dar1", "c0", now=0.0).admitted
            saturated = frontend.admit("link-0", "dar1", "c1", now=0.0)
            assert saturated.reason == "shed"
            assert frontend.admit("link-1", "dar1", "c0", now=0.0).admitted
            stats = frontend.stats()
            assert (stats.admitted, stats.shed) == (2, 1)


class TestFrontendServer:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    async def _roundtrip(self, reader, writer, request):
        writer.write((json.dumps(request) + "\n").encode("utf-8"))
        await writer.drain()
        line = await reader.readline()
        return json.loads(line)

    def test_wire_protocol_end_to_end(self, classes, qos):
        async def scenario():
            with _frontend(classes, qos) as frontend:
                server = await FrontendServer(frontend).start()
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    ping = await self._roundtrip(
                        reader, writer, {"op": "ping"}
                    )
                    assert ping["ok"]
                    admit = await self._roundtrip(
                        reader,
                        writer,
                        {
                            "op": "admit",
                            "link": "link-0",
                            "class": "dar1",
                            "conn": "c0",
                        },
                    )
                    assert admit["ok"] and admit["admitted"]
                    release = await self._roundtrip(
                        reader,
                        writer,
                        {"op": "release", "link": "link-0", "conn": "c0"},
                    )
                    assert release["ok"]
                    stats = await self._roundtrip(
                        reader, writer, {"op": "stats"}
                    )
                    assert stats["ok"]
                    assert stats["stats"]["admitted"] == 1
                    assert stats["stats"]["released"] == 1
                    writer.close()
                    await writer.wait_closed()
                finally:
                    await server.stop()

        self._run(scenario())

    def test_errors_keep_the_connection_alive(self, classes, qos):
        async def scenario():
            with _frontend(classes, qos) as frontend:
                server = await FrontendServer(frontend).start()
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    bad = await self._roundtrip(
                        reader,
                        writer,
                        {"op": "admit", "link": "nope", "class": "dar1",
                         "conn": "c0"},
                    )
                    assert not bad["ok"]
                    assert "unknown link" in bad["error"]
                    unknown_op = await self._roundtrip(
                        reader, writer, {"op": "frobnicate"}
                    )
                    assert not unknown_op["ok"]
                    # The same connection still serves valid requests.
                    ping = await self._roundtrip(
                        reader, writer, {"op": "ping"}
                    )
                    assert ping["ok"]
                    writer.close()
                    await writer.wait_closed()
                finally:
                    await server.stop()

        self._run(scenario())

    def test_non_finite_now_is_refused(self, classes, qos):
        # A NaN arrival time would sit in the overload queue forever:
        # admits 1 s apart at now = 10 ... 15 would then shed from the
        # fourth onward.  The server answers it with an error instead,
        # and the connection and the queue carry on.  A bool or a
        # string is no time either (float() would read true as 1.0),
        # nor is an integer past the float range.
        policy = OverloadPolicy(max_queue_depth=4, decision_seconds=0.001)

        async def scenario():
            with _frontend(classes, qos, overload=policy) as frontend:
                server = await FrontendServer(frontend).start()
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    requests = [
                        ("bad", bad)
                        for bad in (
                            float("nan"), float("inf"), True, "5", 10**400
                        )
                    ]
                    requests += [(f"c{t}", float(t)) for t in range(10, 16)]
                    answers = [
                        await self._roundtrip(
                            reader,
                            writer,
                            {"op": "admit", "link": "link-0",
                             "class": "dar1", "conn": conn, "now": now},
                        )
                        for conn, now in requests
                    ]
                    writer.close()
                    await writer.wait_closed()
                    return answers
                finally:
                    await server.stop()

        answers = self._run(scenario())
        for refused in answers[:5]:
            assert not refused["ok"]
            assert "finite" in refused["error"]
        assert [a["reason"] for a in answers[5:]] == ["admitted"] * 6


def _admit_line(link, conn, class_name="dar1"):
    return json.dumps(
        {"op": "admit", "link": link, "class": class_name, "conn": conn}
    )


def _reference_answer(decision, shard):
    """What the server must send for ``decision``: json.dumps, sorted."""
    response = {
        "ok": True,
        "admitted": decision.admitted,
        "reason": decision.reason,
        "admissible": decision.admissible,
        "occupancy": decision.occupancy,
        "shard": shard,
        "fallback": decision.fallback,
    }
    return (json.dumps(response, sort_keys=True) + "\n").encode("utf-8")


def _pipelined_stream(reference, links, n_requests, rng):
    """Seeded admit/release requests on ``links`` and their answers.

    ``reference`` (an in-process frontend) decides each request as it
    is generated; releases name only connections it admitted.
    """
    requests, expected = [], []
    admitted = {link: [] for link in links}
    release_answer = (json.dumps({"ok": True}, sort_keys=True) + "\n")
    for j in range(n_requests):
        link = rng.choice(links)
        if admitted[link] and rng.random() < 0.4:
            conn = admitted[link].pop(rng.randrange(len(admitted[link])))
            reference.release(link, conn)
            requests.append(json.dumps(
                {"op": "release", "link": link, "conn": conn}
            ))
            expected.append(release_answer.encode("utf-8"))
            continue
        conn = f"c{j}"
        decision = reference.admit(link, "dar1", conn)
        if decision.admitted:
            admitted[link].append(conn)
        requests.append(_admit_line(link, conn))
        expected.append(
            _reference_answer(decision, reference.shard_of(link))
        )
    payload = ("\n".join(requests) + "\n").encode("utf-8")
    return payload, expected


async def _read_lines(reader, count):
    return [await reader.readline() for _ in range(count)]


class TestBatchedReader:
    """Each socket read is answered as one batch, line by line."""

    def _serve(self, classes, qos, scenario):
        async def run():
            with _frontend(classes, qos) as frontend:
                server = await FrontendServer(frontend).start()
                try:
                    reader, writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    try:
                        return await asyncio.wait_for(
                            scenario(reader, writer), 30
                        )
                    finally:
                        writer.close()
                finally:
                    await server.stop()

        return asyncio.run(run())

    def test_pipelined_requests_match_in_process_answers(
        self, classes, qos
    ):
        # 2,000 requests over two connections, each connection's share
        # in one write (about 75 KB, so lines straddle reads).  Each
        # connection owns two links, so its answers do not depend on
        # how the server interleaves the connections.
        rng = random.Random(20261019)
        with _frontend(classes, qos) as reference:
            assert {reference.shard_of(f"link-{i}") for i in range(4)} == {
                0, 1
            }
            streams = [
                _pipelined_stream(
                    reference, [f"link-{2 * c}", f"link-{2 * c + 1}"],
                    1000, rng,
                )
                for c in range(2)
            ]
        answers = b"".join(line for _, lines in streams for line in lines)
        assert b'"admitted": false' in answers  # the boundary was hit

        async def scenario():
            with _frontend(classes, qos) as frontend:
                server = await FrontendServer(frontend).start()
                try:
                    conns = [
                        await asyncio.open_connection(
                            server.host, server.port
                        )
                        for _ in streams
                    ]
                    for (_, writer), (payload, _) in zip(conns, streams):
                        writer.write(payload)
                    received = await asyncio.gather(
                        *(
                            _read_lines(reader, len(expected))
                            for (reader, _), (_, expected) in zip(
                                conns, streams
                            )
                        )
                    )
                    for _, writer in conns:
                        writer.close()
                    return received
                finally:
                    await server.stop()

        received = asyncio.run(asyncio.wait_for(scenario(), 60))
        for got, (_, expected) in zip(received, streams):
            assert got == expected

    def test_line_split_across_writes(self, classes, qos):
        line = _admit_line("link-0", "c0").encode("utf-8")

        async def scenario(reader, writer):
            writer.write(b'{"op": "ping"}\n' + line[:20])
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write(line[20:] + b"\n")
            first, second = await _read_lines(reader, 2)
            return json.loads(first), json.loads(second)

        ping, admit = self._serve(classes, qos, scenario)
        assert ping == {"ok": True, "pong": True}
        assert admit["ok"] and admit["admitted"] and admit["occupancy"] == 1

    def test_final_line_without_newline_is_answered(self, classes, qos):
        async def scenario(reader, writer):
            writer.write(b'{"op": "ping"}\n{"op": "ping"}')
            writer.write_eof()
            return await reader.read()

        assert self._serve(classes, qos, scenario) == (
            b'{"ok": true, "pong": true}\n' * 2
        )

    def test_bad_lines_answer_only_themselves(self, classes, qos):
        ping = b'{"op": "ping"}'
        batch = b"\n".join(
            [ping, b'{"op": ', ping, b"[1, 2]", ping, b"\xff\xfe{}", ping]
        ) + b"\n"

        async def scenario(reader, writer):
            writer.write(batch)
            return [json.loads(line) for line in await _read_lines(reader, 7)]

        answers = self._serve(classes, qos, scenario)
        assert answers[0::2] == [{"ok": True, "pong": True}] * 4
        malformed, non_object, non_utf8 = answers[1::2]
        assert not malformed["ok"] and "Expecting value" in malformed["error"]
        assert non_object == {
            "ok": False, "error": "request must be a JSON object"
        }
        assert not non_utf8["ok"] and "utf-8" in non_utf8["error"]

    def test_deeply_nested_line_is_answered(self, classes, qos):
        async def scenario(reader, writer):
            writer.write(b"[" * 50_000 + b'\n{"op": "ping"}\n')
            return [json.loads(line) for line in await _read_lines(reader, 2)]

        nested, ping = self._serve(classes, qos, scenario)
        assert not nested["ok"] and "recursion" in nested["error"]
        assert ping == {"ok": True, "pong": True}

    @pytest.mark.parametrize("split", [False, True])
    def test_over_long_line_is_answered_and_skipped(
        self, classes, qos, split
    ):
        # split=False: a 70 KB ping and its newline in one write.
        # split=True: 200 KB with no newline first, so the server
        # answers before the line ends and skips the rest of it.
        pad = "x" * (70_000 if not split else 200_000)
        long_line = json.dumps({"op": "ping", "pad": pad}).encode("utf-8")

        async def scenario(reader, writer):
            if split:
                writer.write(long_line)
                await writer.drain()
                await asyncio.sleep(0.05)
                writer.write(b'\n{"op": "ping"}\n')
            else:
                writer.write(long_line + b'\n{"op": "ping"}\n')
            writer.write_eof()
            return await reader.read()

        error, ping, end = self._serve(classes, qos, scenario).split(b"\n")
        error = json.loads(error)
        assert not error["ok"] and str(MAX_LINE_BYTES) in error["error"]
        assert json.loads(ping) == {"ok": True, "pong": True}
        assert end == b""


class _FixedDecisionFrontend:
    """Answers every admit with one preset decision."""

    def __init__(self, decision, shard):
        self.decision = decision
        self.shard = shard

    def admit(self, link_id, class_name, connection_id, *, now=None):
        return self.decision

    def release(self, link_id, connection_id):
        pass

    def shard_of(self, link_id):
        return self.shard


REASONS = sorted(
    value for name, value in vars(engine_module).items()
    if name.startswith("REASON_")
)


class TestResponseTemplates:
    """Admit/release answers equal json.dumps(sort_keys=True) bytes."""

    @pytest.mark.parametrize(
        "admitted,fallback,reason",
        [
            (True, False, "admitted"),
            (False, False, "capacity"),
            (False, False, "shed"),
            (True, True, "admitted"),
            (False, True, "capacity"),
        ],
    )
    @pytest.mark.parametrize("shard", [0, 1])
    def test_admit_answer_is_sorted_json(
        self, admitted, fallback, reason, shard
    ):
        admit = _admit_line("link-0", "c0").encode("utf-8")
        for admissible, occupancy in itertools.product(
            (-1, 0, 27, 10**12), (0, 1, 10**12)
        ):
            decision = AdmissionDecision(
                admitted=admitted,
                link_id="link-0",
                connection_id="c0",
                policy="bahadur-rao",
                reason=reason,
                admissible=admissible,
                occupancy=occupancy,
                fallback=fallback,
            )
            server = FrontendServer(_FixedDecisionFrontend(decision, shard))
            assert server._answer(admit) == _reference_answer(
                decision, shard
            )

    def test_every_reason_is_covered(self):
        # The cases above cover each reason the engine can report.
        assert REASONS == ["admitted", "capacity", "shed"]

    def test_release_answer_is_sorted_json(self):
        server = FrontendServer(_FixedDecisionFrontend(None, 0))
        line = b'{"op": "release", "link": "link-0", "conn": "c0"}'
        assert server._answer(line) == (
            json.dumps({"ok": True}, sort_keys=True) + "\n"
        ).encode("utf-8")


class TestServerStop:
    def test_stop_closes_idle_connections(self, classes, qos):
        async def scenario():
            with _frontend(classes, qos) as frontend:
                server = await FrontendServer(frontend).start()
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    writer.write(b'{"op": "ping"}\n')
                    assert json.loads(await reader.readline())["pong"]
                    await asyncio.wait_for(server.stop(), 5)
                    # stop() returns after the connection's handler.
                    assert asyncio.all_tasks() == {asyncio.current_task()}
                    return await asyncio.wait_for(reader.read(), 5)
                finally:
                    writer.close()

        assert asyncio.run(scenario()) == b""

    def test_stop_aborts_a_client_that_does_not_read(self, classes, qos):
        # Each request's error answer echoes its 60 KB op, so 400 of
        # them (24 MB) fill the socket buffers of a client that never
        # reads; closing would wait for that client forever.
        request = json.dumps({"op": "x" * 60_000}).encode("utf-8") + b"\n"

        async def scenario():
            with _frontend(classes, qos) as frontend:
                server = await FrontendServer(frontend).start()
                _, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    writer.write(request * 400)
                    await asyncio.sleep(1.0)
                    await asyncio.wait_for(server.stop(), 5)
                finally:
                    writer.transport.abort()

        asyncio.run(scenario())

    def test_connection_accepted_during_stop_is_not_served(
        self, classes, qos
    ):
        # Stopping after 0-11 loop steps of a client's connect lands in
        # each phase of the accept.  In every phase the client is
        # refused or reads EOF within a second, and no handler task is
        # left running.
        async def scenario():
            left_running = []
            outcomes = []
            with _frontend(classes, qos) as frontend:
                for steps in range(12):
                    server = await FrontendServer(frontend).start()
                    connecting = asyncio.ensure_future(
                        asyncio.open_connection(server.host, server.port)
                    )
                    for _ in range(steps):
                        await asyncio.sleep(0)
                    await asyncio.wait_for(server.stop(), 5)
                    await asyncio.sleep(0.05)
                    left_running.append(
                        len(asyncio.all_tasks() - {asyncio.current_task()})
                    )
                    try:
                        reader, writer = await connecting
                    except OSError:
                        outcomes.append("refused")  # listener closed first
                        continue
                    try:
                        outcomes.append(
                            await asyncio.wait_for(reader.read(), 1)
                        )
                    except ConnectionResetError:
                        outcomes.append("refused")  # reset in the backlog
                    except asyncio.TimeoutError:
                        outcomes.append("no EOF")
                    finally:
                        writer.close()
            return left_running, outcomes

        left_running, outcomes = asyncio.run(scenario())
        assert left_running == [0] * 12
        assert all(o in ("refused", b"") for o in outcomes), outcomes

    def test_cancelled_serve_forever_closes_connections(self, classes, qos):
        # The runner serve path: Ctrl-C cancels serve_forever.
        async def scenario():
            with _frontend(classes, qos) as frontend:
                server = await FrontendServer(frontend).start()
                serving = asyncio.ensure_future(server.serve_forever())
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    writer.write(b'{"op": "ping"}\n')
                    assert json.loads(await reader.readline())["pong"]
                    serving.cancel()
                    await asyncio.wait_for(
                        asyncio.gather(serving, return_exceptions=True), 5
                    )
                    return await asyncio.wait_for(reader.read(), 5)
                finally:
                    writer.close()

        assert asyncio.run(scenario()) == b""


class TestRepublish:
    """The adaptive hot-swap path: republish rebuilt tables in place."""

    def _rebuilt_text(self, classes, qos, estimated):
        from repro.adaptive.recompute import rebuild_table_text

        return rebuild_table_text(
            classes, estimated, CAPACITY, qos, ("bahadur-rao",)
        )

    def test_swap_changes_boundary_keeps_occupancy(self, classes, qos):
        from repro.models import AR1Model

        with _frontend(classes, qos) as frontend:
            before = frontend.boundary("dar1")
            for i in range(5):
                assert frontend.admit("link-0", "dar1", f"c{i}").admitted
            assert frontend.generation == 0

            # An estimated model 2x the declared mean shrinks the
            # admissible boundary; declared keys stay the lookup keys.
            estimated = AR1Model(0.6, 1000.0, 10000.0)
            generation = frontend.republish(
                self._rebuilt_text(classes, qos, estimated)
            )
            assert generation == 1
            assert frontend.generation == 1
            after = frontend.boundary("dar1")
            assert after < before
            # In-flight connections survive the swap untouched.
            assert frontend.occupancy("link-0") == 5
            frontend.release("link-0", "c0")
            assert frontend.occupancy("link-0") == 4
            assert frontend.stats().table_generation == 1

    def test_swap_with_published_snapshot(self, classes, qos):
        from repro.models import AR1Model

        with _frontend(classes, qos) as frontend:
            estimated = AR1Model(0.6, 1000.0, 10000.0)
            text = self._rebuilt_text(classes, qos, estimated)
            frontend.republish(text)
            # Every shard reloaded its cache from the new snapshot.
            assert frontend.table_text == text
            assert [t.dump_text() for t in frontend._tables] == [text] * 2
            new_boundary = frontend.boundary("dar1")
            with _frontend(classes, qos) as fresh:
                assert new_boundary < fresh.boundary("dar1")

    def test_admissions_respect_swapped_boundary(self, classes, qos):
        from repro.models import AR1Model

        with _frontend(classes, qos) as frontend:
            estimated = AR1Model(0.6, 1000.0, 10000.0)
            frontend.republish(
                self._rebuilt_text(classes, qos, estimated)
            )
            boundary = frontend.boundary("dar1")
            for i in range(boundary):
                assert frontend.admit("link-2", "dar1", f"c{i}").admitted
            assert not frontend.admit("link-2", "dar1", "c-over").admitted
            stats = frontend.stats()
            assert stats.admitted == boundary
            assert stats.blocked == 1
