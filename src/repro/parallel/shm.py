"""Retired shared-memory table transport: two inert names.

Decision tables now reach shards as JSONL text in the shard payload
(:func:`repro.service.tables.load_table`).  ``perfbench/tracing.py``
still imports this module by name and wraps the two functions below,
so they stay until that benchmark harness drops its
``parallel.shm.*`` targets.  Nothing calls them and
:mod:`repro.parallel` does not export them.
"""

_RETIRED = "retired: decision tables travel as text in the shard payload"


def publish_blob(data: bytes):
    """Retired; always raises ``NotImplementedError``."""
    raise NotImplementedError(_RETIRED)


def attach_blob(descriptor: dict):
    """Retired; always raises ``NotImplementedError``."""
    raise NotImplementedError(_RETIRED)
