"""Process lifetime: a benchmark run leaves no process behind.

Pool workers are joined by ``run.stop_pools``, and the wire server by
``wire.Server.stop``.  What those miss are multiprocessing's resource
trackers: helper processes that each process using shared memory
starts, and that exit only after their parent has exited.  So every
benchmark process

* becomes a child subreaper (Linux ``prctl``), so that the tracker of a
  child it started (a set-up child of ``run.py``, a ``runner serve``
  server) becomes its own child when that child exits, and
* at exit stops its own tracker and waits for every child it has left,
  killing any that has not ended after ``REAP_SECONDS``.

Call :func:`guard` once, early in ``main``.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import signal
import sys
import time

#: How long exit waits for the children before it kills them.
REAP_SECONDS = 30.0
_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make this process the parent of its orphaned descendants."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        prctl = None
    if prctl is not None:
        prctl.argtypes = (ctypes.c_int,) + (ctypes.c_ulong,) * 4
        prctl.restype = ctypes.c_int
        if prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0:
            return
    print("warning: cannot become a child subreaper; the resource "
          "tracker of a child may outlive this process", file=sys.stderr)


def guard() -> None:
    """Adopt orphaned descendants and reap every child at exit."""
    become_subreaper()
    # Registered before the program's own handlers, so it runs after
    # them, when they can no longer start a tracker.
    atexit.register(_at_exit)
    # SIGTERM exits through atexit too, rather than killing outright.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def _at_exit() -> None:
    stop_resource_tracker()
    reap_children(REAP_SECONDS)


def stop_resource_tracker() -> None:
    """Stop this process's resource tracker and wait for it to exit."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is None:
        return
    tracker = module._resource_tracker
    if hasattr(tracker, "_stop"):  # newer Pythons have a method for it
        tracker._stop()
        return
    with tracker._lock:
        if tracker._fd is None:
            return
        # The tracker exits when the last writer of its pipe closes it.
        os.close(tracker._fd)
        try:
            os.waitpid(tracker._pid, 0)
        except ChildProcessError:
            pass
        tracker._fd = None
        tracker._pid = None


def children() -> list:
    """Process ids whose parent is this process, exited ones too."""
    me = str(os.getpid())
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        if stat[stat.rindex(b")") + 2:].split()[1].decode() == me:
            found.append(int(name))
    return found


def reap_children(timeout: float) -> None:
    """Wait for every child to end; kill those left after ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)
