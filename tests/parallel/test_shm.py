"""Shared-memory transport lifecycle: publish, attach, unlink, crash.

The contract under test (see ``src/repro/parallel/shm.py``): segments
are owned by their publisher, attachers never affect the name's
lifetime, and nothing survives in ``/dev/shm`` after a normal exit,
an explicit unlink, or a hard crash of the owner.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.parallel import (
    WarmPoolBackend,
    WorkerPayload,
    attach_blob,
    owned_segments,
    publish_blob,
)
from repro.parallel.shm import SEGMENT_PREFIX

DEV_SHM = "/dev/shm"

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir(DEV_SHM),
    reason="/dev/shm audit needs a POSIX shm filesystem",
)


def shm_entries():
    """Names of live repro segments visible in /dev/shm."""
    try:
        return sorted(
            entry
            for entry in os.listdir(DEV_SHM)
            if entry.startswith(SEGMENT_PREFIX)
        )
    except OSError:  # pragma: no cover — no /dev/shm on this platform
        return []


class TestBlobRoundTrip:
    def test_publish_attach_unlink(self):
        payload = b"decision table image \x00\xff" * 100
        handle = publish_blob(payload)
        assert handle.name.startswith(SEGMENT_PREFIX)
        assert handle.name in owned_segments()
        assert attach_blob(handle.descriptor) == payload
        handle.unlink()
        assert handle.name not in owned_segments()

    def test_descriptor_pickles_small(self):
        with publish_blob(b"x" * 1_000_000) as handle:
            wire = pickle.dumps(handle.descriptor)
            # The point of the transport: descriptor size is O(1),
            # not O(payload).
            assert len(wire) < 500
            assert pickle.loads(wire) == handle.descriptor

    def test_unlink_idempotent(self):
        handle = publish_blob(b"abc")
        handle.unlink()
        handle.unlink()  # second call is a no-op, not an error

    @needs_dev_shm
    def test_unlink_removes_dev_shm_entry(self):
        handle = publish_blob(b"abc")
        assert handle.name in shm_entries()
        handle.unlink()
        assert handle.name not in shm_entries()


class _BlobChecksum:
    """Worker task: attach the published blob and checksum it."""

    def __init__(self, descriptor):
        self.descriptor = descriptor

    def __call__(self, index, generator):
        data = attach_blob(self.descriptor)
        return float(sum(data)), float(len(data))


class TestCrossProcess:
    def test_worker_attaches_published_blob(self):
        payload = bytes(range(256)) * 64
        backend = WarmPoolBackend(1)
        try:
            with publish_blob(payload) as handle:
                with backend.session() as session:
                    session.submit(
                        WorkerPayload(
                            index=0,
                            attempt=0,
                            task=_BlobChecksum(handle.descriptor),
                            generator=np.random.default_rng(0),
                            health_check=False,
                        )
                    )
                    result = session.next_completed()
        finally:
            backend.shutdown()
        assert not result.failed
        assert result.value[0] == float(sum(payload))
        assert result.value[1] == float(len(payload))

    @needs_dev_shm
    def test_worker_attachment_does_not_unlink(self):
        # A worker attaching and exiting must not remove the owner's
        # segment (the Python < 3.13 tracker foot-gun this module's
        # lifecycle notes describe).
        before = set(multiprocessing.active_children())
        backend = WarmPoolBackend(1)
        with publish_blob(b"stay") as handle:
            with backend.session() as session:
                session.submit(
                    WorkerPayload(
                        index=0,
                        attempt=0,
                        task=_BlobChecksum(handle.descriptor),
                        generator=np.random.default_rng(0),
                        health_check=False,
                    )
                )
                session.next_completed()
            backend.shutdown()
            for worker in set(multiprocessing.active_children()) - before:
                worker.join(30.0)
                assert not worker.is_alive()
            # Pool torn down, workers gone; the segment must survive
            # until the owner unlinks it.
            assert handle.name in shm_entries()
        assert handle.name not in shm_entries()


@needs_dev_shm
class TestCrashCleanup:
    def test_owner_hard_crash_unlinks_segment(self, tmp_path):
        """os._exit skips atexit; the resource tracker must sweep."""
        script = tmp_path / "crash_owner.py"
        script.write_text(
            "import os, sys\n"
            "from repro.parallel import publish_blob\n"
            "handle = publish_blob(b'orphan' * 1000)\n"
            "print(handle.name, flush=True)\n"
            "os._exit(1)  # no atexit, no unlink\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        name = proc.stdout.strip().split()[-1]
        assert name.startswith(SEGMENT_PREFIX), proc.stderr
        # The crashed owner's resource tracker outlives it and unlinks
        # the leak; give it a moment.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if name not in shm_entries():
                return
            time.sleep(0.1)
        pytest.fail(f"segment {name} leaked after owner crash")
