"""Micro-benchmarks of the library's hot paths.

Genuine timing benchmarks (multiple rounds): the rate-function
infimum search, a full B-R curve, and the traffic samplers.  These
are the knobs that decide whether paper-scale simulation is feasible.
The DAR(p) sampler's rounds also land in ``timings.jsonl`` as a
``darp_sampling`` row.

The replication-scaling benchmarks time the same replicated-CLR batch
serially and across the shared warm worker pool; each run appends a
row with its ``jobs`` count to ``benchmarks/results/timings.jsonl``,
so the serial/parallel trajectory accumulates per commit and the CI
``--jobs-scaling`` gate can demand parallel stays no slower than
serial.  The pool is warmed *outside* the timed region — the one-time
spawn cost is exactly what the warm-pool architecture amortizes away
(see ``docs/PERFORMANCE.md``).  The speedup *assertions* only run on
machines with enough cores to honestly show one; the timing rows are
recorded everywhere.
"""

import os

import numpy as np
import pytest

from conftest import _append_timing
from repro.core import bop_curve, rate_function
from repro.models import make_s, make_z
from repro.parallel import warm_pool
from repro.queueing.multiplexer import ATMMultiplexer
from repro.queueing.replication import replicated_clr


@pytest.fixture(scope="module")
def z_model():
    return make_z(0.975)


def test_rate_function_single(benchmark, z_model):
    result = benchmark(rate_function, z_model, 538.0, 200.0)
    assert result.cts >= 1


def test_bop_curve_11_points(benchmark, z_model):
    delays = np.linspace(0.001, 0.030, 11)
    curve = benchmark(bop_curve, z_model, 538.0, 30, delays)
    assert np.all(np.diff(curve.log10_bop) < 0)


def test_dar_sampling_throughput(benchmark):
    model = make_s(1, 0.975)
    path = benchmark(model.sample_aggregate, 20_000, 30, 7)
    assert path.shape == (20_000,)


# The clr workload's Markov curve: one replication of the DAR(3) fit.
# Bumping the numbers MUST bump the label (see _SCALING_LABEL below).
_DARP_FRAMES = 8_000
_DARP_SOURCES = 30
_DARP_ROUNDS = 7
_DARP_LABEL = "s3x8000x30"


def test_darp_sampling_throughput(benchmark):
    """DAR(3) aggregate sampling, the p >= 2 path the DAR(1) row above
    never reaches; appends a ``darp_sampling`` row to the ledger."""
    model = make_s(3, 0.975)
    path = benchmark.pedantic(
        model.sample_aggregate,
        args=(_DARP_FRAMES, _DARP_SOURCES, 7),
        rounds=_DARP_ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    assert path.shape == (_DARP_FRAMES,)
    mean_s = benchmark.stats.stats.mean
    _append_timing(
        "darp_sampling",
        _DARP_LABEL,
        benchmark,
        rounds=_DARP_ROUNDS,
        extras={
            "frames": _DARP_FRAMES,
            "frames_per_s": _DARP_FRAMES / mean_s if mean_s > 0 else None,
            "cpu_count": os.cpu_count(),
        },
    )


def test_fbndp_sampling_throughput(benchmark, z_model):
    fbndp = z_model.components[0]
    path = benchmark.pedantic(
        fbndp.sample_frames,
        args=(5_000, 7),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    assert path.shape == (5_000,)


def test_composite_aggregate_throughput(benchmark, z_model):
    path = benchmark.pedantic(
        z_model.sample_aggregate,
        args=(2_000, 30, 7),
        rounds=3,
        iterations=1,
        warmup_rounds=0,
    )
    assert path.shape == (2_000,)


def test_finite_buffer_recursion_throughput(benchmark):
    from repro.queueing import simulate_finite_buffer

    rng = np.random.default_rng(0)
    arrivals = rng.uniform(0, 1200, size=100_000)
    result = benchmark(simulate_finite_buffer, arrivals, 600.0, 2000.0)
    assert result.arrived_cells > 0


def _scaling_mux():
    return ATMMultiplexer(make_s(1, 0.975), 30, 18.0, buffer_cells=500.0)


# Workload per scaling row.  The label below names this shape; bumping
# the numbers MUST bump the label, or obs compare would diff rows that
# time different work (the old unlabeled 5k-frame rows recorded the
# per-session spawn tax and are deliberately orphaned).
_SCALING_FRAMES = 20_000
_SCALING_REPS = 8
_SCALING_LABEL = "bench20kx8"


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_replicated_clr_backend_scaling(benchmark, jobs):
    """The same batch serially and on 2/4 warm workers; rows share a
    seed, so the timings are comparable and the results identical."""
    mux = _scaling_mux()
    if jobs > 1:
        warm_pool(jobs).warm()  # spawn cost is not the thing measured
    summary = benchmark.pedantic(
        replicated_clr,
        args=(mux, _SCALING_FRAMES, _SCALING_REPS),
        kwargs={"rng": 7, "jobs": jobs},
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert summary.total_arrived > 0
    mean_s = benchmark.stats.stats.mean
    frames = _SCALING_FRAMES * _SCALING_REPS
    _append_timing(
        "replicated_clr_scaling",
        _SCALING_LABEL,
        benchmark,
        rounds=1,
        jobs=jobs,
        extras={
            "frames": frames,
            "requests_per_s": frames / mean_s if mean_s > 0 else None,
        },
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup assertion needs >= 4 physical cores to be honest; "
    "timing rows are still recorded by the scaling benchmark above",
)
def test_parallel_speedup_at_jobs4():
    import time as _time

    mux = _scaling_mux()
    warm_pool(4).warm()
    started = _time.perf_counter()
    serial = replicated_clr(mux, _SCALING_FRAMES, 8, rng=7)
    t_serial = _time.perf_counter() - started
    started = _time.perf_counter()
    parallel = replicated_clr(mux, _SCALING_FRAMES, 8, rng=7, jobs=4)
    t_parallel = _time.perf_counter() - started
    assert parallel.clr == serial.clr  # speed must not change the science
    assert t_serial / t_parallel >= 2.5


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4 or not os.environ.get("REPRO_PAPER_BENCH"),
    reason="paper-scale speedup (60 x 500k frames) takes minutes; "
    "opt in with REPRO_PAPER_BENCH=1 on a >= 4-core machine",
)
def test_paper_scale_speedup_at_jobs4():
    """The acceptance bar: >= 3x at --jobs 4 on the paper's workload
    (60 replications of 500k-frame traces, Section 4.2)."""
    import time as _time

    mux = _scaling_mux()
    warm_pool(4).warm()
    started = _time.perf_counter()
    serial = replicated_clr(mux, 500_000, 60, rng=7)
    t_serial = _time.perf_counter() - started
    started = _time.perf_counter()
    parallel = replicated_clr(mux, 500_000, 60, rng=7, jobs=4)
    t_parallel = _time.perf_counter() - started
    assert parallel.clr == serial.clr
    assert t_serial / t_parallel >= 3.0
