"""Cold-start cost: the library import and a spawned pool's warm-up.

Every ``runner`` process pays the ``repro`` import before its first
decision, and every spawned pool worker pays it again in its
initializer, before ``WarmPoolBackend.warm`` returns.  Each round here
starts a fresh interpreter, so nothing is cached in ``sys.modules``,
and times inside it:

* ``import repro.service`` (scale ``import_repro_service``);
* ``warm_pool(2).warm()`` after ``repro.parallel`` is imported
  (scale ``warm_pool2``): two spawned workers, each importing the
  library, until both have answered.

Each is timed over five rounds and appended to
``benchmarks/results/timings.jsonl`` as experiment ``startup``,
``layer: "startup"``.  The worker count lives in ``scale`` and every
row says ``jobs: 1``, so ``obs compare --jobs-scaling`` never pairs
the pool row with the import row.
"""

import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import RESULTS_DIR, TIMINGS_PATH

from repro.obs.timings import append_timing_row, percentiles_from_rounds

STARTUP_ROUNDS = 5
SRC = Path(__file__).resolve().parent.parent / "src"

#: Child programs; each prints the seconds its timed part took.
SNIPPETS = {
    "import_repro_service": (
        "import time\n"
        "started = time.perf_counter()\n"
        "import repro.service\n"
        "print(time.perf_counter() - started)\n"
    ),
    "warm_pool2": (
        "import time\n"
        "from repro.parallel import shutdown_warm_pools, warm_pool\n"
        "started = time.perf_counter()\n"
        "warm_pool(2).warm()\n"
        "print(time.perf_counter() - started)\n"
        "shutdown_warm_pools()\n"
    ),
}


def _fresh_process_seconds(snippet: str) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return float(proc.stdout.split()[-1])


@pytest.mark.parametrize("scale", sorted(SNIPPETS))
def test_startup(benchmark, scale):
    seconds = []

    def one_round():
        seconds.append(_fresh_process_seconds(SNIPPETS[scale]))

    benchmark.pedantic(
        one_round, rounds=STARTUP_ROUNDS, iterations=1, warmup_rounds=0
    )
    rounds = sorted(seconds)
    print(
        f"\nstartup {scale}: median {statistics.median(rounds):.3f}s, "
        f"range {rounds[0]:.3f}-{rounds[-1]:.3f}s over {len(rounds)} "
        "fresh processes"
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "experiment": "startup",
        "scale": scale,
        "rounds": len(rounds),
        "jobs": 1,
        "mean_s": statistics.fmean(rounds),
        "min_s": rounds[0],
        "max_s": rounds[-1],
        "stddev_s": statistics.stdev(rounds),
        "cpu_count": os.cpu_count(),
        "telemetry": "off",
        "layer": "startup",
    }
    record.update(percentiles_from_rounds(rounds))
    append_timing_row(TIMINGS_PATH, record)
