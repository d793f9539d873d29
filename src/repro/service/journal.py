"""Event-sourced, checksummed link journals for crash recovery.

A link shard that dies mid-replay must not cost the whole run: the
supervisor (:mod:`repro.service.supervision`) restarts it, and the
restarted attempt recovers the link's exact state from the journal the
dead attempt left behind.  "Exact" is load-bearing — the repo-wide
contract is that a recovered replay is **byte-identical** to a
fault-free one, so the journal carries floats as ``float.hex()``
round-trips and running accumulators as stored values, never as sums
to be recomputed (float addition is not associative).

File format — append-only JSONL, one checksummed record per line::

    {"crc": <crc32 of canonical data JSON>, "data": {...}}

with three record types in ``data``:

* ``header``   — version, run fingerprint, attempt number (always the
  first line);
* ``event``    — one admission decision: sequence number ``seq``, the
  outcome ``k`` (``"a"`` admitted / ``"b"`` blocked / ``"s"`` shed),
  and ``fb`` when the decision came from the fallback policy;
* ``snapshot`` — the full link state after event ``seq`` (the
  engine's mix, decision counts and overload state, the lane's
  departure heap and carried-load integral, table counters), so
  recovery replays only the post-snapshot suffix.

Crash semantics: every attempt writes its **own** file
(``<prefix>.a<N>.jsonl``), and recovery reads prior attempts
read-only.  This is epoch fencing — a hung stale worker that wakes up
and keeps appending to *its* file can never race the restarted
attempt's writes.  A torn final line (crash mid-append) is expected
damage: :func:`load_journal` discards it, counts it on the
``service.journal.torn_tail_recovered`` counter, and recovery loses at
most the one decision that was being written — which the restarted
attempt recomputes deterministically anyway.  Damage *before* the tail
(bit flips, duplicate or gapped sequence numbers, a foreign
fingerprint) raises :class:`~repro.exceptions.JournalError`: that file
is lying, and replaying a lie would silently corrupt the run.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.exceptions import JournalError
from repro.obs import metrics as _metrics
from repro.obs import spans as _spans
from repro.utils.validation import check_integer

__all__ = [
    "JOURNAL_VERSION",
    "JournalEvent",
    "JournalRecovery",
    "LinkJournal",
    "atomic_write_text",
    "decode_line",
    "encode_line",
    "find_recovery",
    "journal_path",
    "load_journal",
]

#: Bumped only on incompatible format changes; readers reject others.
#: Version 2 snapshots carry the engine's own state under ``engine``.
JOURNAL_VERSION = 2

#: Event kinds: admitted, blocked, shed.
EVENT_KINDS = ("a", "b", "s")


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` with crash-safe replace semantics.

    Write-temp + fsync + rename: a crash at any instant leaves either
    the complete old file or the complete new file, never a torn mix.
    Shared by the decision-table store and journal snapshot tooling.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.tmp-{os.getpid()}"
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    # Persist the rename itself; not every filesystem supports opening
    # a directory, so failure here downgrades durability, not safety.
    try:
        dir_fd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:
        return path
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def encode_line(data: dict) -> str:
    """One checksummed JSONL record (no trailing newline)."""
    canonical = json.dumps(data, sort_keys=True)
    crc = zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
    return json.dumps({"crc": crc, "data": data}, sort_keys=True)


def decode_line(line: str) -> dict:
    """Verify one record's CRC and return its ``data`` payload.

    Raises :class:`~repro.exceptions.JournalError` on any damage; the
    caller decides whether the position (tail vs middle) makes the
    damage recoverable.
    """
    try:
        wrapper = json.loads(line)
        crc = wrapper["crc"]
        data = wrapper["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"undecodable journal line: {exc}") from exc
    canonical = json.dumps(data, sort_keys=True)
    expected = zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
    if crc != expected:
        raise JournalError(
            f"journal line CRC mismatch (stored {crc}, computed {expected})"
        )
    if not isinstance(data, dict):
        raise JournalError(
            f"journal record payload must be an object, got {type(data)}"
        )
    return data


def journal_path(prefix, attempt: int) -> Path:
    """The journal file of one ``(shard prefix, attempt)`` epoch."""
    prefix = Path(prefix)
    return prefix.parent / f"{prefix.name}.a{int(attempt)}.jsonl"


@dataclass(frozen=True)
class JournalEvent:
    """One journaled admission outcome."""

    seq: int
    kind: str  # "a" admitted / "b" blocked / "s" shed
    fallback: bool = False


@dataclass(frozen=True)
class JournalRecovery:
    """Everything a restarted attempt needs to resume exactly.

    ``snapshot_state`` is the raw snapshot dict (or None when the dead
    attempt never reached a snapshot); ``events`` are the decisions
    journaled after it, to be re-applied in order; ``next_seq`` is the
    first request the live loop processes fresh.
    """

    path: Path
    attempt: int
    snapshot_seq: int
    snapshot_state: Optional[dict]
    events: Tuple[JournalEvent, ...]
    next_seq: int
    torn_tail: bool


class LinkJournal:
    """Append-only writer for one shard attempt's event journal.

    ``sync_every`` bounds the fsync amortization: an fsync every N
    events caps post-crash loss at N decisions (each recomputed
    deterministically on restart) without paying a disk flush per
    request.
    """

    def __init__(
        self,
        path,
        fingerprint: str,
        *,
        attempt: int = 0,
        sync_every: int = 256,
    ):
        self.path = Path(path)
        self.fingerprint = str(fingerprint)
        self.attempt = check_integer(attempt, "attempt", minimum=0)
        self.sync_every = check_integer(sync_every, "sync_every", minimum=1)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._since_sync = 0
        # Fresh file per attempt — epoch fencing (see module docstring).
        self._fh = self.path.open("w", encoding="utf-8")
        self._write(
            {
                "type": "header",
                "version": JOURNAL_VERSION,
                "fingerprint": self.fingerprint,
                "attempt": self.attempt,
            }
        )
        self.sync()

    def _write(self, data: dict) -> None:
        self._fh.write(encode_line(data) + "\n")
        self._since_sync += 1
        if self._since_sync >= self.sync_every:
            self.sync()

    def event(self, seq: int, kind: str, *, fallback: bool = False) -> None:
        """Journal one admission outcome."""
        record = {"type": "event", "seq": int(seq), "k": kind}
        if fallback:
            record["fb"] = 1
        self._write(record)

    def snapshot(self, seq: int, state: dict) -> None:
        """Journal the full post-``seq`` link state and fsync it."""
        self._write({"type": "snapshot", "seq": int(seq), "state": state})
        self.sync()

    def torn_event(self, seq: int, kind: str, *, fallback: bool = False) -> None:
        """Chaos hook: crash mid-append, leaving a torn final line.

        Writes (and fsyncs) the first half of the encoded record with
        no newline — exactly what a power loss mid-``write`` leaves
        behind — so tests and the chaos CLI can prove torn-tail
        recovery on demand.
        """
        record = {"type": "event", "seq": int(seq), "k": kind}
        if fallback:
            record["fb"] = 1
        line = encode_line(record)
        self._fh.write(line[: len(line) // 2])
        self.sync()

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if not self._fh.closed:
            self.sync()
            self._fh.close()

    def __enter__(self) -> "LinkJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_journal(path, fingerprint: str) -> Optional[JournalRecovery]:
    """Read one attempt's journal back into a recovery plan.

    Returns None when the file is missing or empty (nothing to
    recover).  A torn final line is discarded and counted; any earlier
    damage raises :class:`~repro.exceptions.JournalError`.
    """
    path = Path(path)
    if not path.exists() or path.stat().st_size == 0:
        return None
    raw = path.read_text(encoding="utf-8")
    lines = raw.split("\n")
    # A well-formed journal ends with a newline, so the final split
    # element is empty; anything else is a torn tail candidate.
    torn_candidate = lines[-1] != ""
    lines = [line for line in lines[:-1] if line] + (
        [lines[-1]] if torn_candidate else []
    )
    if not lines:
        return None

    torn_tail = False
    records: List[dict] = []
    last = len(lines) - 1
    for position, line in enumerate(lines):
        try:
            records.append(decode_line(line))
        except JournalError:
            if position == last:
                # Crash mid-append: drop the torn record, recover.
                torn_tail = True
                break
            raise JournalError(
                f"{path}: corrupt journal line {position + 1} of "
                f"{len(lines)} (not the tail — refusing to recover)"
            )
    if torn_candidate and not torn_tail and lines:
        # The last line decoded cleanly but had no newline: the crash
        # landed exactly between payload and terminator.  The record
        # is complete, keep it.
        pass
    if torn_tail and _spans._ENABLED:
        _metrics.add("service.journal.torn_tail_recovered")

    if not records:
        return None
    header = records[0]
    if header.get("type") != "header":
        raise JournalError(f"{path}: first journal record is not a header")
    if header.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"{path}: journal version {header.get('version')!r} != "
            f"{JOURNAL_VERSION}"
        )
    if header.get("fingerprint") != str(fingerprint):
        raise JournalError(
            f"{path}: journal fingerprint {header.get('fingerprint')!r} "
            f"does not match this run ({fingerprint!r}); refusing to "
            "replay another run's events"
        )
    attempt = int(header.get("attempt", 0))

    snapshot_state: Optional[dict] = None
    snapshot_seq = -1
    events: List[JournalEvent] = []
    last_seq: Optional[int] = None
    for record in records[1:]:
        kind = record.get("type")
        if kind == "snapshot":
            seq = int(record["seq"])
            if last_seq is not None and seq != last_seq:
                raise JournalError(
                    f"{path}: snapshot at seq {seq} does not match the "
                    f"preceding event seq {last_seq}"
                )
            snapshot_state = record["state"]
            snapshot_seq = seq
            last_seq = seq
            events = []  # only the post-snapshot suffix replays
        elif kind == "event":
            seq = int(record["seq"])
            if last_seq is None:
                if seq != 0:
                    raise JournalError(
                        f"{path}: first event seq is {seq}, expected 0"
                    )
            elif seq == last_seq:
                raise JournalError(
                    f"{path}: duplicate event seq {seq}"
                )
            elif seq != last_seq + 1:
                raise JournalError(
                    f"{path}: event seq gap ({last_seq} -> {seq})"
                )
            outcome = record.get("k")
            if outcome not in EVENT_KINDS:
                raise JournalError(
                    f"{path}: unknown event kind {outcome!r} at seq {seq}"
                )
            events.append(
                JournalEvent(
                    seq=seq, kind=outcome, fallback=bool(record.get("fb"))
                )
            )
            last_seq = seq
        else:
            raise JournalError(
                f"{path}: unknown journal record type {kind!r}"
            )

    next_seq = 0 if last_seq is None else last_seq + 1
    return JournalRecovery(
        path=path,
        attempt=attempt,
        snapshot_seq=snapshot_seq,
        snapshot_state=snapshot_state,
        events=tuple(events),
        next_seq=next_seq,
        torn_tail=torn_tail,
    )


def find_recovery(
    prefix, attempt: int, fingerprint: str
) -> Optional[JournalRecovery]:
    """The newest prior attempt's journal to recover from, if any.

    Attempt N recovers from the highest attempt < N that left a
    readable journal; attempt 0 has nothing to recover (a fresh run).
    Prior files are read, never modified — a hung stale writer keeps
    appending to its own epoch without disturbing us.
    """
    for previous in range(int(attempt) - 1, -1, -1):
        recovery = load_journal(journal_path(prefix, previous), fingerprint)
        if recovery is not None:
            if _spans._ENABLED:
                _metrics.add(
                    "service.journal.events_recovered", len(recovery.events)
                )
            return recovery
    return None
