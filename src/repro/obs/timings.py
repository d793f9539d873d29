"""Schema'd benchmark timing rows and regression comparison.

``benchmarks/results/timings.jsonl`` accumulates one JSON line per
benchmarked run across commits.  Schema 2 adds provenance (git SHA,
hostname, core count) and tail percentiles so rows from different
machines and commits can be compared honestly; :func:`load_timings`
tolerates the legacy schema-less rows already in the file (they load
as schema 1 with ``jobs=1`` and no provenance).

Row schema (version 2)::

    {"schema": 2, "experiment": "service_replay", "scale": null,
     "rounds": 1, "jobs": 2, "mean_s": ..., "min_s": ..., "max_s": ...,
     "stddev_s": ..., "p50_s": ..., "p90_s": ..., "p99_s": ...,
     "git_sha": "8140e67", "hostname": "runner-3", "cpu_count": 2,
     "timestamp_unix": ...}

plus free-form experiment extras (``requests_per_s`` etc.), preserved
in :attr:`TimingRow.extra`.

Comparison semantics (the ``obs compare`` gate):

* **cross-file** — for every (experiment, scale, jobs) key present in
  both files, the *latest* row of each side is compared;
  ``mean_s`` growing beyond the threshold ratio is a regression.
* **within-file jobs scaling** — every ``jobs > 1`` row is compared
  against the latest serial (``jobs = 1``) row of the same
  experiment; parallel slower than ``threshold x`` serial is a
  regression.  This is the check that flags the recorded
  ``replicated_clr_scaling`` spawn tax (ROADMAP open item 1).
"""

from __future__ import annotations

import json
import math
import os
import socket
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ParameterError

__all__ = [
    "TIMINGS_SCHEMA",
    "RegressionFinding",
    "TimingRow",
    "append_timing_row",
    "compare_timings",
    "environment_fields",
    "jobs_scaling_regressions",
    "latest_by_key",
    "load_timings",
    "percentiles_from_rounds",
]

TIMINGS_SCHEMA = 2

#: Fields every row owns; everything else lands in ``extra``.
_KNOWN_FIELDS = frozenset(
    {
        "schema",
        "experiment",
        "scale",
        "rounds",
        "jobs",
        "mean_s",
        "min_s",
        "max_s",
        "stddev_s",
        "p50_s",
        "p90_s",
        "p99_s",
        "git_sha",
        "hostname",
        "timestamp_unix",
    }
)


@dataclass(frozen=True)
class TimingRow:
    """One benchmark timing measurement (any schema version)."""

    experiment: str
    mean_s: float
    scale: Optional[str] = None
    rounds: int = 1
    jobs: int = 1
    min_s: Optional[float] = None
    max_s: Optional[float] = None
    stddev_s: Optional[float] = None
    p50_s: Optional[float] = None
    p90_s: Optional[float] = None
    p99_s: Optional[float] = None
    schema: int = 1
    git_sha: Optional[str] = None
    hostname: Optional[str] = None
    timestamp_unix: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, Optional[str], int]:
        """The identity rows are matched on across files."""
        return (self.experiment, self.scale, self.jobs)


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _hostname() -> Optional[str]:
    try:
        return socket.gethostname() or None
    except OSError:
        return None


def environment_fields() -> dict:
    """The provenance stamp every schema-2 row carries."""
    return {
        "schema": TIMINGS_SCHEMA,
        "git_sha": _git_sha(),
        "hostname": _hostname(),
        "cpu_count": os.cpu_count(),
    }


def percentiles_from_rounds(round_seconds: Sequence[float]) -> dict:
    """p50/p90/p99 of per-round wall times (order-statistic ranks).

    With few rounds the high percentiles collapse onto the max — that
    is the honest answer, not an error.
    """
    data = sorted(float(v) for v in round_seconds)
    if not data:
        return {"p50_s": None, "p90_s": None, "p99_s": None}
    n = len(data)

    def rank(q: float) -> float:
        return data[math.floor(q * (n - 1))]

    return {"p50_s": rank(0.50), "p90_s": rank(0.90), "p99_s": rank(0.99)}


def append_timing_row(path: Union[str, Path], row: dict) -> None:
    """Append one row, stamped with schema/git/hostname/timestamp.

    Caller-provided fields win over the stamp, so tests (and replays
    of historical data) can pin provenance explicitly.
    """
    record = dict(environment_fields())
    record["timestamp_unix"] = time.time()
    record.update(row)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def load_timings(path: Union[str, Path]) -> List[TimingRow]:
    """Parse a timings JSONL file, tolerating legacy schema-less rows.

    Rows missing ``schema`` are treated as schema 1; missing ``jobs``
    defaults to 1 (serial); rows without an ``experiment`` or a finite
    ``mean_s`` are structurally unusable and raise.
    """
    rows: List[TimingRow] = []
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParameterError(
                    f"{path}:{lineno}: not valid JSON ({exc.msg})"
                ) from None
            experiment = obj.get("experiment")
            mean_s = obj.get("mean_s")
            if not experiment or not isinstance(mean_s, (int, float)):
                raise ParameterError(
                    f"{path}:{lineno}: timing row needs 'experiment' "
                    f"and numeric 'mean_s', got {line[:120]}"
                )
            extra = {
                k: v for k, v in obj.items() if k not in _KNOWN_FIELDS
            }
            rows.append(
                TimingRow(
                    experiment=str(experiment),
                    mean_s=float(mean_s),
                    scale=obj.get("scale"),
                    rounds=int(obj.get("rounds") or 1),
                    jobs=int(obj.get("jobs") or 1),
                    min_s=obj.get("min_s"),
                    max_s=obj.get("max_s"),
                    stddev_s=obj.get("stddev_s"),
                    p50_s=obj.get("p50_s"),
                    p90_s=obj.get("p90_s"),
                    p99_s=obj.get("p99_s"),
                    schema=int(obj.get("schema") or 1),
                    git_sha=obj.get("git_sha"),
                    hostname=obj.get("hostname"),
                    timestamp_unix=obj.get("timestamp_unix"),
                    extra=extra,
                )
            )
    return rows


def latest_by_key(
    rows: Sequence[TimingRow],
) -> Dict[Tuple[str, Optional[str], int], TimingRow]:
    """The last row per (experiment, scale, jobs) in file order."""
    latest: Dict[Tuple[str, Optional[str], int], TimingRow] = {}
    for row in rows:
        latest[row.key] = row
    return latest


@dataclass(frozen=True)
class RegressionFinding:
    """One comparison outcome (regression, improvement, or steady)."""

    experiment: str
    scale: Optional[str]
    jobs: int
    baseline_s: float
    current_s: float
    #: current / baseline wall time (>1 = slower).
    ratio: float
    regression: bool
    kind: str = "cross-file"  # or "jobs-scaling"

    def format(self) -> str:
        verdict = "REGRESSION" if self.regression else "ok"
        scale = self.scale or "-"
        return (
            f"{self.experiment:<28} scale={scale:<8} jobs={self.jobs:<2} "
            f"{self.baseline_s:>10.4f}s -> {self.current_s:>10.4f}s  "
            f"{self.ratio:>7.2f}x  {verdict}"
        )


def compare_timings(
    baseline: Sequence[TimingRow],
    current: Sequence[TimingRow],
    *,
    threshold: float = 1.5,
) -> List[RegressionFinding]:
    """Diff two runs: latest row per key, regression past ``threshold``.

    Keys present on only one side are skipped — a benchmark that was
    added or removed is not a timing regression.
    """
    if threshold <= 1.0:
        raise ParameterError(
            f"threshold must be > 1 (a slowdown ratio), got {threshold}"
        )
    base = latest_by_key(baseline)
    cur = latest_by_key(current)
    findings = []
    for key in sorted(set(base) & set(cur), key=str):
        b, c = base[key], cur[key]
        ratio = c.mean_s / b.mean_s if b.mean_s > 0 else math.inf
        findings.append(
            RegressionFinding(
                experiment=c.experiment,
                scale=c.scale,
                jobs=c.jobs,
                baseline_s=b.mean_s,
                current_s=c.mean_s,
                ratio=ratio,
                regression=ratio > threshold,
            )
        )
    return findings


def jobs_scaling_regressions(
    rows: Sequence[TimingRow],
    *,
    threshold: float = 1.0,
) -> List[RegressionFinding]:
    """Within one file: every ``jobs > 1`` row vs its serial sibling.

    ``threshold`` is the tolerated parallel/serial ratio — 1.0 demands
    parallel be no slower than serial at all, 5.0 only flags
    pathologies like the recorded ProcessPool spawn tax.
    """
    if threshold <= 0.0:
        raise ParameterError(f"threshold must be > 0, got {threshold}")
    latest = latest_by_key(rows)
    findings = []
    for key in sorted(latest, key=str):
        row = latest[key]
        if row.jobs <= 1:
            continue
        serial = latest.get((row.experiment, row.scale, 1))
        if serial is None or serial.mean_s <= 0:
            continue
        ratio = row.mean_s / serial.mean_s
        findings.append(
            RegressionFinding(
                experiment=row.experiment,
                scale=row.scale,
                jobs=row.jobs,
                baseline_s=serial.mean_s,
                current_s=row.mean_s,
                ratio=ratio,
                regression=ratio > threshold,
                kind="jobs-scaling",
            )
        )
    return findings
