"""The async sharded admission frontend.

ROADMAP open item 1's last structural piece: where
:mod:`repro.service.replay` *replays* a recorded workload,
this module *serves* admission — accept admit/release requests (over
a socket, or through the in-process API the benchmarks and the
open-loop driver use), route each link to its shard, and answer from
the cached decision tables in microseconds.

Three design rules, each load-bearing at scale:

* **consistent hashing** — :class:`ConsistentHashRing` maps link ids
  onto shards through a ring of SHA-256-placed virtual nodes.  The
  mapping is a pure function of ``(link_id, n_shards, replicas)``:
  every process (frontend, open-loop drive workers, a future fleet)
  computes the same placement without coordination, and growing the
  shard count moves only ``~1/n`` of the links.
* **immutable table snapshot** — the decision tables are computed
  once, serialized to the JSONL image :meth:`DecisionTableCache
  .dump_text` emits, and published through
  :mod:`repro.parallel.shm` as one read-only segment.  Every shard
  loads its private cache from that snapshot, so the admission hot
  path never takes a cross-shard lock and never pickles a table —
  the PR-8 transport, now serving the frontend.
* **engine-per-link shards** — a shard owns the
  :class:`~repro.service.engine.AdmissionEngine` of every link the
  ring assigns it, all sharing the shard's snapshot-loaded cache.
  Overload state stays per link, so the PR-7 backpressure contract
  (bounded queue shedding, breaker fallback — ``docs/ROBUSTNESS.md``)
  holds byte-for-byte regardless of how links land on shards.

The wire protocol (``docs/SERVICE.md``) is newline-delimited JSON:
one request object per line, one response object per line, pipelined
freely.  ``runner serve`` binds it to a TCP socket;
:class:`FrontendServer` is the asyncio implementation.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError, ReproError
from repro.parallel.shm import SharedBlob, attach_blob, publish_blob
from repro.service.engine import AdmissionDecision, AdmissionEngine
from repro.service.overload import OverloadPolicy
from repro.service.tables import (
    SERVICE_METHODS,
    DecisionTableCache,
)
from repro.service.workload import ConnectionClass
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "AdmissionFrontend",
    "ConsistentHashRing",
    "FrontendServer",
    "FrontendStats",
    "build_table_snapshot",
]


class ConsistentHashRing:
    """Deterministic consistent hashing of string keys onto shards.

    Each shard contributes ``replicas`` virtual nodes placed by
    SHA-256 (stable across processes, platforms, and Python hash
    randomization — ``hash()`` is deliberately *not* used).  A key
    belongs to the first virtual node clockwise of its own hash.
    """

    def __init__(self, n_shards: int, *, replicas: int = 64):
        self.n_shards = check_integer(n_shards, "n_shards", minimum=1)
        self.replicas = check_integer(replicas, "replicas", minimum=1)
        points: List[Tuple[int, int]] = []
        for shard in range(self.n_shards):
            for replica in range(self.replicas):
                points.append((self._hash(f"shard-{shard}#{replica}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
        )

    def shard_for(self, key: str) -> int:
        """The shard index owning ``key``."""
        index = bisect_right(self._hashes, self._hash(key))
        if index == len(self._hashes):
            index = 0
        return self._shards[index]

    def assign(self, keys: Sequence[str]) -> List[List[str]]:
        """Partition ``keys`` into per-shard lists (ring order kept)."""
        groups: List[List[str]] = [[] for _ in range(self.n_shards)]
        for key in keys:
            groups[self.shard_for(key)].append(key)
        return groups

    def __repr__(self) -> str:
        return (
            f"ConsistentHashRing(n_shards={self.n_shards}, "
            f"replicas={self.replicas})"
        )


def build_table_snapshot(
    classes: Sequence[ConnectionClass],
    *,
    capacity: float,
    qos: QoSRequirement,
    policy: str,
    fallback_method: str = "peak-rate",
    table_path=None,
) -> str:
    """Warm a staging cache and return its immutable JSONL image.

    Every decision the frontend can be asked for — each class under
    the primary policy and under the breaker's conservative fallback —
    is computed exactly once here, so shards constructed from the
    snapshot never pay an offline inversion on the admission path.
    ``table_path`` seeds the staging cache from (and persists new
    entries to) an existing JSONL table file.
    """
    staging = DecisionTableCache(path=table_path)
    for cls in classes:
        staging.lookup(cls.model, capacity, qos, policy)
        if fallback_method != policy:
            staging.lookup(cls.model, capacity, qos, fallback_method)
    return staging.dump_text()


@dataclass(frozen=True)
class FrontendStats:
    """Aggregate decision counters across every shard."""

    n_shards: int
    n_links: int
    admitted: int
    blocked: int
    shed: int
    fallbacks: int
    released: int
    #: Monotone counter of completed table republishes (hot swaps).
    table_generation: int = 0

    @property
    def requests(self) -> int:
        return self.admitted + self.blocked + self.shed

    def to_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "n_links": self.n_links,
            "admitted": self.admitted,
            "blocked": self.blocked,
            "shed": self.shed,
            "fallbacks": self.fallbacks,
            "released": self.released,
            "requests": self.requests,
            "table_generation": self.table_generation,
        }


@dataclass
class _Shard:
    """One shard: a snapshot-loaded cache and its links' engines."""

    index: int
    tables: DecisionTableCache
    engines: Dict[str, AdmissionEngine] = field(default_factory=dict)
    admitted: int = 0
    blocked: int = 0
    shed: int = 0
    fallbacks: int = 0
    released: int = 0


class AdmissionFrontend:
    """In-process surface of the sharded admission service.

    Parameters
    ----------
    classes:
        The servable traffic classes; requests name one by its
        ``ConnectionClass.name``.
    link_ids:
        Every link the frontend serves.  Each is hashed onto a shard
        and registered with that shard's engine at ``capacity`` /
        ``qos``.
    policy:
        Admission policy, one of
        :data:`~repro.service.tables.SERVICE_METHODS`.
    n_shards:
        Shard count (engines grouped per shard; each shard owns a
        private decision-table cache loaded from the shared snapshot).
    overload:
        Optional :class:`~repro.service.overload.OverloadPolicy`
        applied *per link* — the PR-7 backpressure contract.
    table_path:
        Optional JSONL table file warming the snapshot.
    publish:
        Publish the table snapshot through shared memory (the default;
        the open-loop drive workers attach the same segment).  With
        ``False`` the snapshot stays an in-process string — useful for
        tests on platforms without shared memory.
    """

    def __init__(
        self,
        classes: Sequence[ConnectionClass],
        link_ids: Sequence[str],
        *,
        capacity: float,
        qos: Optional[QoSRequirement] = None,
        policy: str = "bahadur-rao",
        n_shards: int = 1,
        overload: Optional[OverloadPolicy] = None,
        table_path=None,
        publish: bool = True,
    ):
        if policy not in SERVICE_METHODS:
            raise ParameterError(
                f"unknown admission policy {policy!r}; choose from "
                f"{', '.join(SERVICE_METHODS)}"
            )
        if not classes:
            raise ParameterError("frontend needs at least one ConnectionClass")
        if not link_ids:
            raise ParameterError("frontend needs at least one link id")
        if len(set(link_ids)) != len(link_ids):
            raise ParameterError(f"link ids must be unique, got {link_ids}")
        check_positive(capacity, "capacity")
        self.policy = policy
        self.capacity = float(capacity)
        self.qos = qos if qos is not None else QoSRequirement()
        self.overload = overload
        self._classes: Dict[str, ConnectionClass] = {}
        for cls in classes:
            if cls.name in self._classes:
                raise ParameterError(
                    f"class names must be unique, got duplicate {cls.name!r}"
                )
            self._classes[cls.name] = cls
        self.ring = ConsistentHashRing(n_shards)
        fallback = (
            overload.fallback_method if overload is not None else "peak-rate"
        )
        self.table_text = build_table_snapshot(
            classes,
            capacity=self.capacity,
            qos=self.qos,
            policy=policy,
            fallback_method=fallback,
            table_path=table_path,
        )
        self._table_handle: Optional[SharedBlob] = None
        self._publish = bool(publish)
        #: Monotone table generation: bumped by every completed
        #: :meth:`republish` (the adaptive hot-swap path).
        self.generation = 0
        if publish:
            self._table_handle = publish_blob(
                self.table_text.encode("utf-8")
            )
        self._shards: List[_Shard] = []
        self._link_shard: Dict[str, _Shard] = {}
        for index in range(n_shards):
            tables = DecisionTableCache(persist=False)
            tables.load_text(self._snapshot_text())
            self._shards.append(_Shard(index=index, tables=tables))
        for link_id in link_ids:
            shard = self._shards[self.ring.shard_for(link_id)]
            engine = AdmissionEngine(
                policy=policy, tables=shard.tables, overload=overload
            )
            engine.add_link(link_id, self.capacity, self.qos)
            shard.engines[link_id] = engine
            self._link_shard[link_id] = shard

    def _snapshot_text(self) -> str:
        """The published snapshot's bytes (or the in-process string)."""
        if self._table_handle is not None:
            return attach_blob(self._table_handle.descriptor).decode("utf-8")
        return self.table_text

    # -- topology ------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def link_ids(self) -> Tuple[str, ...]:
        return tuple(self._link_shard)

    def shard_of(self, link_id: str) -> int:
        """The shard index serving ``link_id`` (ring placement)."""
        shard = self._link_shard.get(link_id)
        if shard is None:
            raise ParameterError(
                f"unknown link {link_id!r}; serving: "
                f"{sorted(self._link_shard)}"
            )
        return shard.index

    @property
    def table_descriptor(self) -> Optional[dict]:
        """Picklable shm address of the published table snapshot."""
        if self._table_handle is None:
            return None
        return self._table_handle.descriptor

    def boundary(self, class_name: str) -> int:
        """Offline admissible N for ``class_name`` under the policy."""
        cls = self._class(class_name)
        decision = self._shards[0].tables.lookup(
            cls.model, self.capacity, self.qos, self.policy
        )
        return decision.admissible

    def _class(self, class_name: str) -> ConnectionClass:
        cls = self._classes.get(class_name)
        if cls is None:
            raise ParameterError(
                f"unknown class {class_name!r}; serving: "
                f"{sorted(self._classes)}"
            )
        return cls

    # -- the service surface -------------------------------------------------

    def admit(
        self,
        link_id: str,
        class_name: str,
        connection_id: str,
        *,
        now: Optional[float] = None,
    ) -> AdmissionDecision:
        """Route one admission request to its shard and decide it.

        ``now`` is the request's arrival time; with an overload policy
        configured it drives the per-link bounded decision queue
        (defaulting to the monotonic clock, so a live server sheds on
        real time while the open-loop driver passes workload time).
        """
        shard = self._link_shard.get(link_id)
        if shard is None:
            raise ParameterError(
                f"unknown link {link_id!r}; serving: "
                f"{sorted(self._link_shard)}"
            )
        cls = self._class(class_name)
        if now is None and self.overload is not None:
            now = time.monotonic()
        decision = shard.engines[link_id].admit(
            link_id, cls.model, connection_id, now=now
        )
        if decision.reason == "shed":
            shard.shed += 1
        elif decision.admitted:
            shard.admitted += 1
        else:
            shard.blocked += 1
        if decision.fallback:
            shard.fallbacks += 1
        return decision

    def release(self, link_id: str, connection_id: str) -> None:
        """Tear down an admitted connection on its shard."""
        shard = self._link_shard.get(link_id)
        if shard is None:
            raise ParameterError(
                f"unknown link {link_id!r}; serving: "
                f"{sorted(self._link_shard)}"
            )
        shard.engines[link_id].release(link_id, connection_id)
        shard.released += 1

    def occupancy(self, link_id: str) -> int:
        shard = self._link_shard.get(link_id)
        if shard is None:
            raise ParameterError(f"unknown link {link_id!r}")
        return shard.engines[link_id].occupancy(link_id)

    def flush_telemetry(self) -> None:
        """Publish every link's recorded telemetry, in link order."""
        for link_id, shard in self._link_shard.items():
            shard.engines[link_id].flush_telemetry()

    def stats(self) -> FrontendStats:
        """Aggregate decision counters across every shard.

        Also a telemetry flush point: the registry catches up with
        every decision made so far.
        """
        self.flush_telemetry()
        return FrontendStats(
            n_shards=len(self._shards),
            n_links=len(self._link_shard),
            admitted=sum(s.admitted for s in self._shards),
            blocked=sum(s.blocked for s in self._shards),
            shed=sum(s.shed for s in self._shards),
            fallbacks=sum(s.fallbacks for s in self._shards),
            released=sum(s.released for s in self._shards),
            table_generation=self.generation,
        )

    # -- hot table swap ------------------------------------------------------

    def republish(self, table_text: str) -> int:
        """Atomically swap every shard onto a new decision-table image.

        The adaptive recompute path (:mod:`repro.adaptive.recompute`)
        builds a fresh JSONL table image off the hot path and installs
        it here:

        1. the new image is published as a *new* shared-memory segment
           (the old one keeps serving attached readers until the swap
           is complete);
        2. each shard gets a freshly loaded private cache, and every
           engine is repointed at its shard's new cache with its
           hot-path key memos invalidated — link state (admitted
           connections, occupancy, overload) is untouched, so no
           in-flight connection is dropped;
        3. only then is the old segment unlinked and the generation
           bumped.

        Requests decided before the swap used the old table, requests
        after use the new one; there is no interleaving in which a
        request sees half a table.  Returns the new generation.
        """
        new_handle: Optional[SharedBlob] = None
        if self._publish:
            new_handle = publish_blob(table_text.encode("utf-8"))
        old_handle = self._table_handle
        self.table_text = table_text
        self._table_handle = new_handle
        for shard in self._shards:
            # The retiring cache's hits would otherwise go unpublished.
            shard.tables.publish_hits()
            tables = DecisionTableCache(persist=False)
            tables.load_text(self._snapshot_text())
            shard.tables = tables
            for engine in shard.engines.values():
                engine.tables = tables
                engine.invalidate_decision_caches()
        if old_handle is not None:
            old_handle.unlink()
        self.generation += 1
        return self.generation

    def close(self) -> None:
        """Flush telemetry and unlink the table snapshot (idempotent)."""
        self.flush_telemetry()
        handle, self._table_handle = self._table_handle, None
        if handle is not None:
            handle.unlink()

    def __enter__(self) -> "AdmissionFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"AdmissionFrontend(policy={self.policy!r}, "
            f"links={len(self._link_shard)}, shards={len(self._shards)})"
        )


class FrontendServer:
    """Newline-delimited-JSON admission service over asyncio TCP.

    One JSON object per line in, one per line out, in order —
    clients may pipeline any number of requests before reading.
    Operations (``docs/SERVICE.md`` documents the full protocol):

    ``{"op": "admit", "link": L, "class": C, "conn": ID[, "now": T]}``
        -> ``{"ok": true, "admitted": ..., "reason": ...,
        "admissible": ..., "occupancy": ..., "shard": ...,
        "fallback": ...}``
    ``{"op": "release", "link": L, "conn": ID}``
        -> ``{"ok": true}``
    ``{"op": "stats"}``
        -> ``{"ok": true, "stats": {...}}``
    ``{"op": "ping"}``
        -> ``{"ok": true, "pong": true}``

    Service errors (unknown link/class, double admit) come back as
    ``{"ok": false, "error": "..."}`` on the same line — the
    connection survives; malformed JSON likewise.  All shards live on
    the server's event loop, so per-connection handlers never race on
    engine state.
    """

    def __init__(
        self,
        frontend: AdmissionFrontend,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.frontend = frontend
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "FrontendServer":
        """Bind and start accepting; resolves ``port`` when 0."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "admit":
            decision = self.frontend.admit(
                str(request["link"]),
                str(request["class"]),
                str(request["conn"]),
                now=(
                    None if request.get("now") is None
                    else float(request["now"])
                ),
            )
            return {
                "ok": True,
                "admitted": decision.admitted,
                "reason": decision.reason,
                "admissible": decision.admissible,
                "occupancy": decision.occupancy,
                "shard": self.frontend.shard_of(decision.link_id),
                "fallback": decision.fallback,
            }
        if op == "release":
            self.frontend.release(
                str(request["link"]), str(request["conn"])
            )
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "stats": self.frontend.stats().to_dict()}
        if op == "ping":
            return {"ok": True, "pong": True}
        raise ParameterError(
            f"unknown op {op!r}; choose admit, release, stats, or ping"
        )

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ParameterError(
                            "request must be a JSON object"
                        )
                    response = self._dispatch(request)
                except (ReproError, KeyError, TypeError, ValueError) as exc:
                    # A bad request must not take the connection (let
                    # alone the server) down: report and keep reading.
                    response = {"ok": False, "error": str(exc)}
                writer.write(
                    json.dumps(response, sort_keys=True).encode("utf-8")
                    + b"\n"
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-line; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, Exception):  # noqa: B014
                # Teardown only: the transport may already be gone
                # (client reset, loop shutdown); there is nothing
                # left to fail.
                pass

    def __repr__(self) -> str:
        return (
            f"FrontendServer({self.frontend!r}, "
            f"addr={self.host}:{self.port})"
        )
