"""Declarative SLO targets and window-based burn-rate evaluation.

An :class:`SLOTarget` states an objective over exported metrics — the
things ROADMAP open item 2 wants pinned down, e.g.

* ``admit_latency p99 < 50_000 ns`` — a **quantile** target against a
  :class:`~repro.obs.sketch.QuantileSketch`;
* ``clr_replication error_rate < 0.01`` — a **ratio** target against
  counters (bad events over total events);
* ``boundary_violations == 0`` — a **counter** ceiling.

Evaluation is pure: :func:`evaluate` takes a metrics snapshot (the
list-of-dicts form of :func:`repro.obs.metrics.snapshot` or a parsed
JSONL dump) and returns measured values and verdicts, so the same
targets run against a live registry, a file on disk, or CI artifacts.

Burn rate follows the SRE convention: how fast a window consumed its
error budget.  Counters and sketches exported by this library are
*cumulative*, so a window is the difference of two snapshots —
:func:`burn_rate` subtracts counter values and sketch bucket counts
(sketches subtract exactly; see :meth:`QuantileSketch.window`) and
reports ``observed / objective``: 1.0 means burning exactly at
budget, above 1.0 the SLO is on course to be violated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ParameterError
from repro.obs.sketch import QuantileSketch

__all__ = [
    "SLOResult",
    "SLOTarget",
    "burn_rate",
    "evaluate",
    "load_slo_file",
    "DEFAULT_SERVICE_SLOS",
]

#: Supported target kinds.
SLO_KINDS = ("quantile", "ratio", "counter")


@dataclass(frozen=True)
class SLOTarget:
    """One declarative objective over exported metrics.

    Parameters
    ----------
    name:
        Human label, e.g. ``"admit_latency_p99"``.
    kind:
        ``"quantile"`` — ``quantile(q)`` of sketch ``metric`` must be
        ``<= threshold``; ``"ratio"`` — ``sum(bad) / sum(total)`` of
        the named counters must be ``<= threshold``; ``"counter"`` —
        the counter ``metric`` must be ``<= threshold``.
    metric:
        Sketch or counter name (quantile / counter kinds).
    quantile:
        The quantile for ``kind="quantile"`` (default 0.99).
    threshold:
        The objective ceiling (ns for latency sketches, a rate in
        [0, 1] for ratios, a count for counters).
    bad / total:
        Counter names summed for the ratio numerator / denominator.
    """

    name: str
    kind: str
    threshold: float
    metric: str = ""
    quantile: float = 0.99
    bad: Tuple[str, ...] = ()
    total: Tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ParameterError(
                f"SLO {self.name!r}: unknown kind {self.kind!r}; choose "
                f"from {', '.join(SLO_KINDS)}"
            )
        if self.kind in ("quantile", "counter") and not self.metric:
            raise ParameterError(
                f"SLO {self.name!r}: kind {self.kind!r} needs a metric"
            )
        if self.kind == "quantile" and not 0.0 <= self.quantile <= 1.0:
            raise ParameterError(
                f"SLO {self.name!r}: quantile must be in [0, 1], got "
                f"{self.quantile}"
            )
        if self.kind == "ratio" and (not self.bad or not self.total):
            raise ParameterError(
                f"SLO {self.name!r}: kind 'ratio' needs bad and total "
                "counter names"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "SLOTarget":
        """Build from a JSON-friendly dict (the declarative file form)."""
        try:
            return cls(
                name=data["name"],
                kind=data["kind"],
                threshold=float(data["threshold"]),
                metric=data.get("metric", ""),
                quantile=float(data.get("quantile", 0.99)),
                bad=tuple(data.get("bad", ())),
                total=tuple(data.get("total", ())),
                description=data.get("description", ""),
            )
        except KeyError as exc:
            raise ParameterError(
                f"SLO spec missing required field {exc.args[0]!r}: {data}"
            ) from None


@dataclass(frozen=True)
class SLOResult:
    """The verdict for one target against one snapshot (or window)."""

    target: SLOTarget
    #: Measured value (quantile / rate / count); None when the metric
    #: was absent from the snapshot.
    measured: Optional[float]
    #: True = met, False = violated, None = no data.
    ok: Optional[bool]
    #: ``measured / threshold`` — the budget burn (>1 = violating).
    #: None when unmeasurable (no data, or a zero threshold met).
    burn: Optional[float] = None
    detail: str = ""

    def format(self) -> str:
        verdict = (
            "no-data" if self.ok is None else ("ok" if self.ok else "VIOLATED")
        )
        measured = (
            "n/a" if self.measured is None else f"{self.measured:.6g}"
        )
        burn = "" if self.burn is None else f"  burn={self.burn:.2f}x"
        return (
            f"{self.target.name:<28} {verdict:<9} "
            f"measured={measured}  objective<={self.target.threshold:.6g}"
            f"{burn}"
        )


def _index(metric_dicts: Iterable[dict]) -> Dict[str, dict]:
    return {
        d["name"]: d for d in metric_dicts if d.get("name")
    }


def _counter_value(by_name: Dict[str, dict], name: str) -> Optional[float]:
    data = by_name.get(name)
    if data is None or data.get("type") != "counter":
        return None
    return float(data.get("value") or 0.0)


def _measure(
    target: SLOTarget, by_name: Dict[str, dict]
) -> Tuple[Optional[float], str]:
    """The measured value for one target, plus a detail string."""
    if target.kind == "quantile":
        data = by_name.get(target.metric)
        if data is None or data.get("type") != "sketch":
            return None, f"sketch {target.metric!r} not in snapshot"
        sketch = QuantileSketch.from_dict(data)
        if sketch.count == 0:
            return None, f"sketch {target.metric!r} is empty"
        return sketch.quantile(target.quantile), f"n={sketch.count}"
    if target.kind == "counter":
        value = _counter_value(by_name, target.metric)
        if value is None:
            return None, f"counter {target.metric!r} not in snapshot"
        return value, ""
    # ratio
    bad = [_counter_value(by_name, name) for name in target.bad]
    total = [_counter_value(by_name, name) for name in target.total]
    if all(v is None for v in total):
        return None, "no denominator counters in snapshot"
    denominator = sum(v for v in total if v is not None)
    numerator = sum(v for v in bad if v is not None)
    if denominator <= 0:
        return None, "denominator is zero"
    return numerator / denominator, f"{numerator:g}/{denominator:g}"


def _verdict(target: SLOTarget, measured: Optional[float]) -> SLOResult:
    if measured is None or math.isnan(measured):
        return SLOResult(target=target, measured=None, ok=None)
    ok = measured <= target.threshold
    burn = measured / target.threshold if target.threshold > 0 else None
    return SLOResult(target=target, measured=measured, ok=ok, burn=burn)


def evaluate(
    targets: Sequence[SLOTarget], metric_dicts: Iterable[dict]
) -> List[SLOResult]:
    """Judge every target against one metrics snapshot."""
    by_name = _index(metric_dicts)
    results = []
    for target in targets:
        measured, detail = _measure(target, by_name)
        result = _verdict(target, measured)
        results.append(
            SLOResult(
                target=result.target,
                measured=result.measured,
                ok=result.ok,
                burn=result.burn,
                detail=detail or result.detail,
            )
        )
    return results


def _window_metrics(
    start: Iterable[dict], end: Iterable[dict]
) -> List[dict]:
    """The metric deltas between two cumulative snapshots.

    Counters subtract; sketches subtract bucket-exactly; gauges pass
    through as their ``end`` value (point-in-time, not needed by any
    SLO kind).
    """
    start_by_name = _index(start)
    window: List[dict] = []
    for data in end:
        name = data.get("name")
        kind = data.get("type")
        before = start_by_name.get(name)
        if kind == "counter":
            delta = float(data.get("value") or 0.0)
            if before is not None and before.get("type") == "counter":
                delta -= float(before.get("value") or 0.0)
            if delta < 0:
                raise ParameterError(
                    f"counter {name!r} decreased across the window; the "
                    "start snapshot is not a prefix of the end snapshot"
                )
            window.append({"type": "counter", "name": name, "value": delta})
        elif kind == "sketch":
            sketch = QuantileSketch.window(
                before if before is not None else None, data
            )
            window.append(sketch.to_dict())
        else:
            window.append(data)
    return window


def burn_rate(
    targets: Sequence[SLOTarget],
    start: Iterable[dict],
    end: Iterable[dict],
) -> List[SLOResult]:
    """Judge targets over the window between two cumulative snapshots.

    The returned :attr:`SLOResult.burn` is the window's budget burn
    (``measured / objective``): sustained values above 1.0 mean the
    objective will be violated over the long run even if the
    cumulative totals still look healthy.
    """
    return evaluate(targets, _window_metrics(list(start), list(end)))


def load_slo_file(path: Union[str, Path]) -> List[SLOTarget]:
    """Load declarative targets from JSON: a list of target dicts."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(raw, dict):
        if "slos" not in raw:
            raise ParameterError(
                f"{path}: SLO object form must carry an 'slos' list"
            )
        raw = raw["slos"]
    if not isinstance(raw, list):
        raise ParameterError(
            f"{path}: SLO file must be a JSON list (or object with an "
            "'slos' list)"
        )
    return [SLOTarget.from_dict(item) for item in raw]


#: The library's own service/replication objectives, used as the
#: default spec by ``runner obs slo`` (thresholds are deliberately
#: loose — they are tripwires, not tuning targets).
DEFAULT_SERVICE_SLOS: Tuple[SLOTarget, ...] = (
    SLOTarget(
        name="admit_latency_p99",
        kind="quantile",
        metric="service.admit_latency_ns",
        quantile=0.99,
        threshold=1_000_000.0,
        description="p99 admission decision latency under 1 ms",
    ),
    SLOTarget(
        name="admit_latency_p999",
        kind="quantile",
        metric="service.admit_latency_ns",
        quantile=0.999,
        threshold=10_000_000.0,
        description="p999 admission decision latency under 10 ms",
    ),
    SLOTarget(
        name="clr_replication_error_rate",
        kind="ratio",
        bad=("replications_failed",),
        total=("replications_completed", "replications_failed"),
        threshold=0.01,
        description="failed CLR replications under 1% of attempts",
    ),
    SLOTarget(
        name="replication_degradation",
        kind="counter",
        metric="replications_degraded",
        threshold=0.0,
        description="no deadline/budget-degraded replication batches",
    ),
    SLOTarget(
        name="boundary_violations",
        kind="counter",
        metric="service.boundary_violations",
        threshold=0.0,
        description="online decisions never contradict the offline table",
    ),
    SLOTarget(
        name="admission_shed_rate",
        kind="ratio",
        bad=("service.shed",),
        total=("service.admitted", "service.blocked", "service.shed"),
        threshold=0.05,
        description="overload sheds under 5% of admission requests",
    ),
    SLOTarget(
        name="fallback_decisions",
        kind="counter",
        metric="service.fallback_decisions",
        threshold=0.0,
        description="no breaker-driven peak-rate fallback decisions",
    ),
    SLOTarget(
        name="shard_restarts",
        kind="counter",
        metric="service.shard_restarts",
        threshold=0.0,
        description="no link shards crashed or hung during replay",
    ),
    SLOTarget(
        name="journal_torn_tails",
        kind="counter",
        metric="service.journal.torn_tail_recovered",
        threshold=0.0,
        description="no torn journal tails discarded during recovery",
    ),
    SLOTarget(
        name="drift_detections",
        kind="counter",
        metric="adaptive.drift_detections",
        threshold=0.0,
        description="no unhandled traffic drift on stationary "
        "workloads (nonstationary runs expect detections; see "
        "docs/ADAPTIVE.md for the false-positive runbook)",
    ),
)
