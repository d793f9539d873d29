"""Shared-memory transport for large read-only payload components.

Worker payloads that carry megabytes — decision-table snapshots —
pay a pickle + pipe-copy tax per task under the process backends.
This module publishes such a blob *once* through
``multiprocessing.shared_memory`` and ships a tiny picklable
descriptor instead; every worker on the machine reads the same pages.

Lifecycle contract (the part that goes wrong in the wild):

* The **owner** (publisher) is responsible for the segment's name in
  the filesystem.  Every published segment lands in a process-wide
  registry unlinked by ``atexit``; on a hard crash (SIGKILL, OOM) the
  ``resource_tracker`` — a separate helper process that outlives the
  whole process tree — unlinks whatever the registry never got to, so
  segments cannot outlive the run.
* **Attachers** (workers) only close their mapping.  Worker processes
  inherit the owner's resource-tracker process, whose name cache is a
  set: the attach-time ``register`` Python < 3.13 performs is an
  idempotent no-op there, and it must *not* be compensated with an
  ``unregister`` — that would delete the owner's registration out of
  the shared set (and provoke tracker ``KeyError`` noise when the
  owner unlinks).  A worker exiting never triggers tracker cleanup;
  the tracker only sweeps once every process holding its pipe is
  gone.

Segments are named ``repro_shm_<owner pid>_<random>`` so tests (and
operators) can audit ``/dev/shm`` for leaks.  See
``docs/PERFORMANCE.md`` for platform caveats (macOS name-length
limits, no ``/dev/shm`` on Windows).
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from multiprocessing import shared_memory
from typing import Optional, Tuple

__all__ = [
    "SharedBlob",
    "attach_blob",
    "owned_segments",
    "publish_blob",
    "unlink_owned",
]

#: Prefix every segment name carries; tests scan /dev/shm for it.
SEGMENT_PREFIX = "repro_shm_"

_lock = threading.Lock()
_owned: dict = {}  # name -> handle (this process published it)


def _new_segment(nbytes: int) -> shared_memory.SharedMemory:
    while True:
        name = f"{SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(int(nbytes), 1)
            )
        except FileExistsError:  # pragma: no cover — 32-bit collision
            continue


class SharedBlob:
    """Owner-side handle on a byte string published once."""

    def __init__(self, segment: shared_memory.SharedMemory, size: int):
        self._segment: Optional[shared_memory.SharedMemory] = segment
        self.name = segment.name
        self.size = int(size)

    @property
    def descriptor(self) -> dict:
        """Picklable address of the data — ship this, not the bytes."""
        return {"kind": "blob", "name": self.name, "size": self.size}

    def unlink(self) -> None:
        """Close and remove the segment (idempotent)."""
        with _lock:
            _owned.pop(self.name, None)
        segment, self._segment = self._segment, None
        if segment is None:
            return
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover — already gone
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()


def publish_blob(data: bytes) -> SharedBlob:
    """Copy ``data`` into a fresh shared segment owned by this process."""
    segment = _new_segment(len(data))
    segment.buf[: len(data)] = data
    handle = SharedBlob(segment, len(data))
    with _lock:
        _owned[handle.name] = handle
    return handle


def _owner_segment(name: str) -> Optional[shared_memory.SharedMemory]:
    with _lock:
        handle = _owned.get(name)
    return None if handle is None else handle._segment


def attach_blob(descriptor: dict) -> bytes:
    """Copy a published blob out of shared memory.

    Blobs are deserialized once by their consumer (e.g. a decision
    table snapshot), so the mapping is closed immediately rather than
    cached — only the byte copy survives.
    """
    name = descriptor["name"]
    size = int(descriptor["size"])
    segment = _owner_segment(name)
    if segment is not None:
        return bytes(segment.buf[:size])
    segment = shared_memory.SharedMemory(name=name)
    try:
        return bytes(segment.buf[:size])
    finally:
        segment.close()


def owned_segments() -> Tuple[str, ...]:
    """Names this process has published and not yet unlinked."""
    with _lock:
        return tuple(_owned)


def unlink_owned() -> None:
    """Unlink every segment this process still owns (atexit, tests)."""
    with _lock:
        handles = list(_owned.values())
    for handle in handles:
        handle.unlink()


atexit.register(unlink_owned)
