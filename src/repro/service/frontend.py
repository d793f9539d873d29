"""The async sharded admission frontend.

Where :mod:`repro.service.replay` *replays* a recorded workload,
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
  once and serialized to the JSONL text :meth:`DecisionTableCache
  .dump_text` emits (a few hundred bytes a decision).  Every shard
  loads its private cache from that text, so the admission hot path
  never takes a cross-shard lock; ``drive`` ships the same text to
  its shards in their payloads.
* **engine-per-link shards** — a shard owns the
  :class:`~repro.service.engine.AdmissionEngine` of every link the
  ring assigns it, all sharing the shard's snapshot-loaded cache.  An
  engine serves exactly one link, so its overload state is per link
  by construction: the backpressure contract (bounded queue
  shedding, breaker fallback — ``docs/ROBUSTNESS.md``) holds
  byte-for-byte regardless of how links land on shards.

The wire protocol (``docs/SERVICE.md``) is newline-delimited JSON:
one request object per line, one response object per line, pipelined
freely.  ``runner serve`` binds it to a TCP socket;
:class:`FrontendServer` is the asyncio implementation.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError, ReproError
from repro.service.engine import (
    REASON_ADMITTED,
    REASON_CAPACITY,
    REASON_SHED,
    AdmissionDecision,
    AdmissionEngine,
)
from repro.service.overload import OverloadPolicy
from repro.service.tables import (
    SERVICE_METHODS,
    DecisionTableCache,
    load_table,
)
from repro.service.workload import ConnectionClass
from repro.utils.validation import check_integer, check_positive

__all__ = [
    "AdmissionFrontend",
    "ConsistentHashRing",
    "FrontendServer",
    "FrontendStats",
    "MAX_LINE_BYTES",
    "build_table_snapshot",
]

#: Longest request line :class:`FrontendServer` accepts, in bytes
#: without its newline (asyncio's default stream limit).
MAX_LINE_BYTES = 65536
#: Bytes asked of the socket per read; each read is answered as a batch.
_READ_BYTES = 65536
#: Listen backlog, and the most connections one accept callback takes
#: (``asyncio.start_server``'s default backlog).
_BACKLOG = 100
#: Pause before accepting again after the process ran out of
#: descriptors or buffers.
_ACCEPT_RETRY_SECONDS = 1.0
#: ``json.dumps(response, sort_keys=True)`` of an admit answer, the
#: decision's fields left as slots.  Filling it costs a fraction of
#: ``json.dumps``, which builds a new encoder on every call.
_ADMIT_RESPONSE = (
    b'{"admissible": %d, "admitted": %b, "fallback": %b, '
    b'"occupancy": %d, "ok": true, "reason": %b, "shard": %d}\n'
)
_RELEASE_RESPONSE = b'{"ok": true}\n'
#: JSON spellings of the reasons the engine reports.
_REASON_JSON = {
    reason: json.dumps(reason).encode("utf-8")
    for reason in (REASON_ADMITTED, REASON_CAPACITY, REASON_SHED)
}


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


class AdmissionFrontend:
    """In-process surface of the sharded admission service.

    Parameters
    ----------
    classes:
        The servable traffic classes; requests name one by its
        ``ConnectionClass.name``.
    link_ids:
        Every link the frontend serves.  Each is hashed onto a shard
        and gets its own engine there, at ``capacity`` / ``qos``.
    policy:
        Admission policy, one of
        :data:`~repro.service.tables.SERVICE_METHODS`.
    n_shards:
        Shard count (engines grouped per shard; each shard owns a
        private decision-table cache loaded from the snapshot text).
    overload:
        Optional :class:`~repro.service.overload.OverloadPolicy`
        applied *per link*: each link's engine owns its queue and
        breaker.
    table_path:
        Optional JSONL table file warming the snapshot.
    publish:
        Ignored.  Every shard loads its cache from :attr:`table_text`;
        the keyword stays only because ``perfbench/wire.py`` passes it.
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
        #: Monotone table generation: bumped by every completed
        #: :meth:`republish` (the adaptive hot-swap path).
        self.generation = 0
        #: Each shard's private cache, by shard index.
        self._tables = [load_table(self.table_text) for _ in range(n_shards)]
        #: Each link's engine, in link order, and its shard index.
        self._engines: Dict[str, AdmissionEngine] = {}
        self._shard_index: Dict[str, int] = {}
        for link_id in link_ids:
            index = self._shard_index[link_id] = self.ring.shard_for(link_id)
            self._engines[link_id] = AdmissionEngine(
                link_id,
                self.capacity,
                self.qos,
                policy=policy,
                tables=self._tables[index],
                overload=overload,
            )

    # -- topology ------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._tables)

    @property
    def link_ids(self) -> Tuple[str, ...]:
        return tuple(self._engines)

    def shard_of(self, link_id: str) -> int:
        """The shard index serving ``link_id`` (ring placement)."""
        self._engine(link_id)
        return self._shard_index[link_id]

    def boundary(self, class_name: str) -> int:
        """Offline admissible N for ``class_name`` under the policy."""
        cls = self._class(class_name)
        decision = self._tables[0].lookup(
            cls.model, self.capacity, self.qos, self.policy
        )
        return decision.admissible

    def _engine(self, link_id: str) -> AdmissionEngine:
        engine = self._engines.get(link_id)
        if engine is None:
            raise ParameterError(
                f"unknown link {link_id!r}; serving: {sorted(self._engines)}"
            )
        return engine

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
        engine = self._engine(link_id)
        cls = self._class(class_name)
        if now is None and self.overload is not None:
            now = time.monotonic()
        return engine.admit(cls.model, connection_id, now=now)

    def release(self, link_id: str, connection_id: str) -> None:
        """Tear down an admitted connection on its shard."""
        self._engine(link_id).release(connection_id)

    def occupancy(self, link_id: str) -> int:
        return self._engine(link_id).occupancy

    def flush_telemetry(self) -> None:
        """Publish every link's recorded telemetry, in link order."""
        for engine in self._engines.values():
            engine.flush_telemetry()

    def stats(self) -> FrontendStats:
        """Aggregate decision counters across every shard.

        Also a telemetry flush point: the registry catches up with
        every decision made so far.
        """
        self.flush_telemetry()
        engines = self._engines.values()
        return FrontendStats(
            n_shards=len(self._tables),
            n_links=len(engines),
            admitted=sum(engine.admitted for engine in engines),
            blocked=sum(engine.blocked for engine in engines),
            shed=sum(engine.shed for engine in engines),
            fallbacks=sum(engine.fallbacks for engine in engines),
            released=sum(engine.released for engine in engines),
            table_generation=self.generation,
        )

    # -- hot table swap ------------------------------------------------------

    def republish(self, table_text: str) -> int:
        """Swap every shard onto a new decision-table image.

        A fresh JSONL table image (such as
        :func:`repro.adaptive.recompute.rebuild_table_text` builds off
        the hot path) replaces :attr:`table_text`; each shard gets a
        freshly loaded private cache, and every engine is repointed at
        its shard's new cache with its hot-path key memos invalidated.
        Link state (admitted connections, occupancy, overload) is
        untouched, so no in-flight connection is dropped.  The swap
        runs between requests on the caller's thread, so requests
        decided before it used the old table and requests after use
        the new one; none sees half a table.  Returns the new
        generation.
        """
        self.table_text = table_text
        for index, retiring in enumerate(self._tables):
            # The retiring cache's hits would otherwise go unpublished.
            retiring.publish_hits()
            self._tables[index] = load_table(table_text)
        for link_id, engine in self._engines.items():
            engine.tables = self._tables[self._shard_index[link_id]]
            engine.invalidate_decision_caches()
        self.generation += 1
        return self.generation

    def close(self) -> None:
        """Flush telemetry (idempotent)."""
        self.flush_telemetry()

    def __enter__(self) -> "AdmissionFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"AdmissionFrontend(policy={self.policy!r}, "
            f"links={len(self._engines)}, shards={len(self._tables)})"
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

    Responses are ``json.dumps(response, sort_keys=True)`` bytes; the
    admit and release answers are filled from pre-sorted templates
    that spell them byte for byte the same.  A pipelined burst is
    answered one socket read at a time: every complete line of a read
    is decided in order and the read's responses go out in one write,
    still one response per line.  A line may be at most
    :data:`MAX_LINE_BYTES` bytes; a longer one is answered with an
    error and skipped through its newline.  Service errors (unknown
    link/class, double admit) come back as ``{"ok": false, "error":
    "..."}`` on the same line — the connection survives; malformed
    JSON likewise, and so is an admit whose ``"now"`` is not a finite
    number (a NaN arrival time would never leave the overload queue).
    All shards live on the server's event loop, so per-connection
    handlers never race on engine state.

    The server owns its listening sockets and accepts in a reader
    callback, so every accepted socket is the server's from the
    moment it exists: :meth:`stop` closes the ones whose handler has
    not started along with the live connections.
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
        #: The listening sockets while serving; None before start()
        #: and after stop().
        self._listeners: Optional[List[socket.socket]] = None
        #: Accepted sockets whose handler task has not started yet.
        self._unstarted: Set[socket.socket] = set()
        #: The handler task of every accepted connection.
        self._tasks: Set[asyncio.Task] = set()
        #: The stream writer of every connection being served.
        self._writers: Set[asyncio.StreamWriter] = set()

    async def start(self) -> "FrontendServer":
        """Bind and start accepting; resolves ``port`` when 0.

        Binds every address ``host`` resolves to, as
        ``asyncio.start_server`` does (an empty host means every
        interface).
        """
        loop = asyncio.get_running_loop()
        infos = await loop.getaddrinfo(
            self.host or None,
            self.port,
            type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )
        listeners: List[socket.socket] = []
        try:
            for family, _, _, _, address in dict.fromkeys(infos):
                # SO_REUSEADDR, and IPV6_V6ONLY on IPv6, as asyncio sets.
                listener = socket.create_server(
                    address, family=family, backlog=_BACKLOG
                )
                listener.setblocking(False)
                listeners.append(listener)
        except OSError:
            for listener in listeners:
                listener.close()
            raise
        self._listeners = listeners
        for listener in listeners:
            self._listen(listener)
        self.port = listeners[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled, then :meth:`stop`."""
        if self._listeners is None:
            await self.start()
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop accepting, close every connection, and wait.

        An accepted socket whose handler has not started is closed at
        once.  A live connection closes once its answers so far are
        flushed, and its handler then sees end of stream and returns.
        One with answers still queued is aborted instead: its client
        is not reading them, and a flush would wait for it.
        """
        listeners, self._listeners = self._listeners, None
        if listeners is None:
            return
        loop = asyncio.get_running_loop()
        for listener in listeners:
            loop.remove_reader(listener.fileno())
            listener.close()
        for conn in self._unstarted:
            conn.close()
        self._unstarted.clear()
        for writer in self._writers:
            if writer.transport.get_write_buffer_size():
                writer.transport.abort()
            else:
                writer.close()
        if self._tasks:
            await asyncio.wait(self._tasks)

    def _listen(self, listener: socket.socket) -> None:
        """Accept on ``listener`` unless stop() has closed it."""
        if self._listeners is not None and listener in self._listeners:
            asyncio.get_running_loop().add_reader(
                listener.fileno(), self._accept, listener
            )

    def _accept(self, listener: socket.socket) -> None:
        """Accept every queued connection; each gets a handler task."""
        loop = asyncio.get_running_loop()
        for _ in range(_BACKLOG):
            try:
                conn, _ = listener.accept()
            except (BlockingIOError, InterruptedError, ConnectionAbortedError):
                return
            except OSError:
                # Out of descriptors or buffers: the listener stays
                # readable, so pause accepting rather than spin.
                loop.remove_reader(listener.fileno())
                loop.call_later(_ACCEPT_RETRY_SECONDS, self._listen, listener)
                return
            conn.setblocking(False)
            self._unstarted.add(conn)
            task = loop.create_task(self._handle(conn))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    def _answer(self, line: bytes) -> bytes:
        """The response line to one request line (newline stripped)."""
        try:
            if len(line) > MAX_LINE_BYTES:
                raise ParameterError(
                    f"request line longer than the {MAX_LINE_BYTES}-byte "
                    f"limit"
                )
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ParameterError("request must be a JSON object")
            op = request.get("op")
            if op == "admit":
                now = request.get("now")
                # json.loads may give a bool, a string or an integer
                # past the float range here: no clock reading (float()
                # would take true for 1.0).
                if now is not None and (
                    type(now) not in (int, float)
                    or not abs(now) <= sys.float_info.max
                ):
                    raise ParameterError(
                        f'"now" must be a finite number, got {now!r}'
                    )
                decision = self.frontend.admit(
                    str(request["link"]),
                    str(request["class"]),
                    str(request["conn"]),
                    now=now,
                )
                return _ADMIT_RESPONSE % (
                    decision.admissible,
                    b"true" if decision.admitted else b"false",
                    b"true" if decision.fallback else b"false",
                    decision.occupancy,
                    _REASON_JSON[decision.reason],
                    self.frontend.shard_of(decision.link_id),
                )
            if op == "release":
                self.frontend.release(
                    str(request["link"]), str(request["conn"])
                )
                return _RELEASE_RESPONSE
            if op == "stats":
                response = {
                    "ok": True, "stats": self.frontend.stats().to_dict()
                }
            elif op == "ping":
                response = {"ok": True, "pong": True}
            else:
                raise ParameterError(
                    f"unknown op {op!r}; choose admit, release, stats, "
                    f"or ping"
                )
        except (
            ReproError, KeyError, TypeError, ValueError, RecursionError
        ) as exc:
            # A bad request must not take the connection (let alone
            # the server) down: report and keep reading.  (Nesting
            # deeper than the interpreter's recursion limit makes
            # json.loads raise RecursionError.)
            response = {"ok": False, "error": str(exc)}
        return json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"

    async def _handle(self, conn: socket.socket) -> None:
        """Serve one accepted socket, unless stop() closed it first."""
        if conn not in self._unstarted:
            return
        self._unstarted.discard(conn)
        try:
            reader, writer = await asyncio.open_connection(sock=conn)
        except OSError:
            conn.close()
            return
        if self._listeners is None:
            writer.close()  # stop() began while the stream was made
            return
        self._writers.add(writer)
        answer = self._answer
        # The incomplete last line of the reads so far.
        tail = b""
        # Inside a line already answered as too long: drop its bytes.
        skipping = False
        try:
            while True:
                data = await reader.read(_READ_BYTES)
                if not data:
                    break
                lines = (tail + data).split(b"\n")
                tail = lines.pop()
                if skipping:
                    if not lines:
                        tail = b""
                        continue
                    del lines[0]
                    skipping = False
                if len(tail) > MAX_LINE_BYTES:
                    # Answer an over-long line before its newline
                    # arrives, so the tail stays within the limit.
                    lines.append(tail)
                    tail = b""
                    skipping = True
                if lines:
                    writer.write(b"".join([answer(line) for line in lines]))
                    await writer.drain()
            if tail:
                writer.write(answer(tail))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-batch; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()

    def __repr__(self) -> str:
        return (
            f"FrontendServer({self.frontend!r}, "
            f"addr={self.host}:{self.port})"
        )
