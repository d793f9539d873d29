"""Tests for the sharded admission frontend.

Load-bearing properties: consistent-hash placement is a pure function
of (link id, shard count, replicas); every shard's cache, loaded from
the table snapshot's text, reproduces the staged decision table
exactly; the in-process API and the asyncio wire protocol reach the
same engine state; and overload semantics flow through unchanged.
"""

import asyncio
import json

import pytest

from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.models import make_s
from repro.service.frontend import (
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
                assert [s.tables.dump_text() for s in frontend._shards] == [
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
            assert [s.tables.dump_text() for s in frontend._shards] == [
                text
            ] * 2
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
