"""Spans and counts recorded around calls into the program.

The benchmark never edits ``src/``: a :class:`Tracer` wraps public
functions and methods of the loaded ``repro`` modules for the length
of a ``with tracer.installed():`` block and restores them afterwards.
A function imported by name into other modules (``from x import f``)
is replaced in every loaded ``repro`` module that holds it, so calls
through any import site are seen.

Spans (name, start, end, parent, run id) and counts stay in memory
and are written out when the run ends.  They are kept as columns of
name codes, start and end times and parent indices, 28 bytes a span,
since a traced ``drive`` run records about two million.
A span's self time is its duration minus the time its child spans
cover; children of one span run one after another on one thread, so
that is the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
import gzip
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layer boundaries wrapped as plain spans: (module, attribute path,
#: span name).  An attribute path with a dot is a method on a class.
PLAIN_TARGETS = (
    ("repro.service.engine", "AdmissionEngine.admit", "service.engine.admit"),
    (
        "repro.service.engine",
        "AdmissionEngine.release",
        "service.engine.release",
    ),
    (
        "repro.atm.cac",
        "admissible_connections",
        "atm.cac.admissible_connections",
    ),
    ("repro.service.replay", "replay_link", "service.replay.replay_link"),
    ("repro.obs.metrics", "observe_sketch", "obs.metrics.observe_sketch"),
    ("repro.obs.metrics", "add", "obs.metrics.add"),
    (
        "repro.parallel.worker",
        "merge_result_telemetry",
        "parallel.merge_result_telemetry",
    ),
    ("repro.parallel.shm", "publish_blob", "parallel.shm.publish_blob"),
    ("repro.parallel.shm", "attach_blob", "parallel.shm.attach_blob"),
    (
        "repro.parallel.backends",
        "WarmPoolBackend.warm",
        "parallel.warm_pool.warm",
    ),
    (
        "repro.models.fbndp",
        "superposed_onoff_occupancy",
        "models.fbndp.superposed_onoff_occupancy",
    ),
    (
        "repro.queueing.workload",
        "simulate_finite_buffer_batch",
        "queueing.simulate_finite_buffer_batch",
    ),
    (
        "repro.queueing.replication",
        "replicated_clr_curve",
        "queueing.replicated_clr_curve",
    ),
    (
        "repro.service.frontend",
        "AdmissionFrontend.admit",
        "service.frontend.admit",
    ),
    (
        "repro.service.frontend",
        "AdmissionFrontend.release",
        "service.frontend.release",
    ),
)


class Tracer:
    """In-memory span and count recorder for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: Span names; a span's code indexes this list.
        self.names: List[str] = []
        #: Span columns in start order; ``parents`` holds the index of
        #: the enclosing span, or -1.
        self.codes = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def __len__(self) -> int:
        """Spans recorded."""
        return len(self.codes)

    # -- recording -----------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call under ``name``.

        ``count(args, kwargs, result)`` may add to :attr:`counts`.
        """
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        codes, starts, ends = self.codes, self.starts, self.ends
        parents = self.parents
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary; restore the originals on exit."""
        undo: List[Callable[[], None]] = []
        try:
            for module_name, path, name in PLAIN_TARGETS:
                self._patch(module_name, path, name, undo)
            self._patch_special(undo)
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def _patch(self, module_name, path, name, undo, count=None):
        module = sys.modules.get(module_name)
        if module is None:
            __import__(module_name)
            module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original, count))
            undo.append(lambda: setattr(owner, attr, original))
            return
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, count)
        # Rebind every by-name import of the function as well.
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                undo.append(
                    lambda mod=mod: setattr(mod, attr, original)
                )

    def _patch_special(self, undo) -> None:
        counts = self.counts

        # DecisionTableCache.lookup: a call is a hit when it raised the
        # cache's own hit counter.
        from repro.service.tables import DecisionTableCache

        original_lookup = DecisionTableCache.__dict__["lookup"]
        traced_lookup = self.wrap("service.tables.lookup", original_lookup)

        @functools.wraps(original_lookup)
        def lookup(cache, *args, **kwargs):
            hits = cache.hits
            result = traced_lookup(cache, *args, **kwargs)
            if cache.hits != hits:
                counts["service.tables.lookup.hits"] += 1
            return result

        DecisionTableCache.lookup = lookup
        undo.append(
            lambda: setattr(DecisionTableCache, "lookup", original_lookup)
        )

        def requests(args, kwargs, result):
            counts["service.workload.generate_workload.requests"] += (
                result.n_requests
            )

        self._patch(
            "repro.service.workload",
            "generate_workload",
            "service.workload.generate_workload",
            undo,
            count=requests,
        )

        def draws(args, kwargs, result):
            counts["models.heavy_tail.ppf.draws"] += int(np.size(result))

        self._patch(
            "repro.models.heavy_tail",
            "HeavyTailedDuration.ppf",
            "models.heavy_tail.ppf",
            undo,
            count=draws,
        )

        # DARModel.sample_aggregate, split by the model's order.
        from repro.models.dar import DARModel

        original_dar = DARModel.__dict__["sample_aggregate"]
        by_order: Dict[int, Callable] = {}

        @functools.wraps(original_dar)
        def sample_aggregate(model, n_frames, *args, **kwargs):
            order = model.order
            traced = by_order.get(order)
            if traced is None:
                traced = by_order[order] = self.wrap(
                    f"models.dar.sample_aggregate.order{order}", original_dar
                )
            counts[f"models.dar.sample_aggregate.order{order}.frames"] += (
                n_frames
            )
            return traced(model, n_frames, *args, **kwargs)

        DARModel.sample_aggregate = sample_aggregate
        undo.append(
            lambda: setattr(DARModel, "sample_aggregate", original_dar)
        )

        # Pool sessions: time the parent's submits and its waits.
        from repro.parallel.backends import WarmPoolBackend

        original_session = WarmPoolBackend.__dict__["session"]

        @contextlib.contextmanager
        def session(backend):
            with original_session(backend) as pool_session:
                pool_session.submit = self.wrap(
                    "parallel.session.submit", pool_session.submit
                )
                pool_session.next_completed = self.wrap(
                    "parallel.session.wait", pool_session.next_completed
                )
                yield pool_session

        WarmPoolBackend.session = session
        undo.append(
            lambda: setattr(WarmPoolBackend, "session", original_session)
        )

    # -- results -------------------------------------------------------------

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        durations = np.frombuffer(self.ends, dtype=np.float64) - starts
        parents = np.frombuffer(self.parents, dtype=np.int64)
        nested = parents >= 0
        child_time = np.bincount(
            parents[nested], weights=durations[nested], minlength=len(self)
        )
        codes = np.frombuffer(self.codes, dtype=np.int32)
        size = len(self.names)
        calls = np.bincount(codes, minlength=size)
        total = np.bincount(codes, weights=durations, minlength=size)
        own = np.bincount(
            codes, weights=durations - child_time, minlength=size
        )
        return {
            name: {
                "calls": int(calls[code]),
                "total_s": float(total[code]),
                "self_s": float(own[code]),
            }
            for code, name in enumerate(self.names)
            if calls[code]
        }

    def write(self, path: Path) -> None:
        """Write the spans and counts as gzipped JSON lines.

        The first line names the run and the span fields; each span
        follows as ``[name, start, end, parent]``, where ``parent`` is
        the line index of the enclosing span among the spans (-1 for
        none); the last line holds the counts.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(
                json.dumps(
                    {
                        "run": self.run_id,
                        "fields": ["name", "start", "end", "parent"],
                    }
                )
                + "\n"
            )
            names = self.names
            for code, start, end, parent in zip(
                self.codes, self.starts, self.ends, self.parents
            ):
                fh.write(json.dumps([names[code], start, end, parent]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def layer_stats(
    tracers: List[Tracer],
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    """Span aggregates and counts, each name from the first tracer
    that saw it (callers list the inline, jobs=1 tracer first)."""
    spans: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    for tracer in tracers:
        for name, entry in tracer.aggregate().items():
            spans.setdefault(name, entry)
        for name, value in tracer.counts.items():
            counts.setdefault(name, value)
    return spans, counts


def span_metrics(
    spans: Dict[str, Dict[str, float]], counts: Dict[str, float]
) -> Dict[str, float]:
    """The per-layer metrics that come straight from spans and counts."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def us_per_call(name):
        n = calls(name)
        return total(name) / n * 1e6 if n else 0.0

    out: Dict[str, float] = {}
    for name in (
        "service.engine.admit",
        "service.engine.release",
        "service.tables.lookup",
        "obs.metrics.observe_sketch",
        "obs.metrics.add",
        "service.frontend.admit",
        "service.frontend.release",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.us_per_call"] = us_per_call(name)
    lookups = calls("service.tables.lookup")
    out["service.tables.lookup.hit_ratio"] = (
        counts.get("service.tables.lookup.hits", 0) / lookups
        if lookups
        else 0.0
    )
    for name in (
        "atm.cac.admissible_connections",
        "parallel.shm.publish_blob",
        "parallel.shm.attach_blob",
        "models.heavy_tail.ppf",
        "queueing.simulate_finite_buffer_batch",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = total(name)
    out["service.workload.generate_workload.requests"] = counts.get(
        "service.workload.generate_workload.requests", 0
    )
    out["service.workload.generate_workload.s"] = total(
        "service.workload.generate_workload"
    )
    out["service.replay.replay_link.self_s"] = spans.get(
        "service.replay.replay_link", {}
    ).get("self_s", 0.0)
    out["queueing.replicated_clr_curve.self_s"] = spans.get(
        "queueing.replicated_clr_curve", {}
    ).get("self_s", 0.0)
    out["parallel.session.submit_s"] = total("parallel.session.submit")
    out["parallel.session.wait_s"] = total("parallel.session.wait")
    out["parallel.merge_result_telemetry.s"] = total(
        "parallel.merge_result_telemetry"
    )
    out["parallel.warm_pool.warm.s"] = total("parallel.warm_pool.warm")
    out["models.fbndp.superposed_onoff_occupancy.s"] = total(
        "models.fbndp.superposed_onoff_occupancy"
    )
    for order in (1, 3):
        prefix = f"models.dar.sample_aggregate.order{order}"
        out[f"{prefix}.frames"] = counts.get(f"{prefix}.frames", 0)
        out[f"{prefix}.s"] = total(prefix)
    return out
