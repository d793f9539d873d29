"""The repository benchmark: four seeded workloads, checked outputs.

Run one workload as the benchmark contract does, from the repository
root::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

or every workload, untraced, with a human-readable report::

    python3 perfbench/run.py --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is nonzero when an output check fails.
``--write-benchmark-json`` regenerates ``BENCHMARK.json`` from
``spec.py``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

import host  # noqa: E402  (the benchmark's own modules sit beside this file)
import procs  # noqa: E402
import spec  # noqa: E402

#: String hash seed of every benchmark process.  Python draws a fresh
#: one per process unless told otherwise, and on this code that alone
#: moved a replay run's decisions/s by about 7 % between processes.
HASH_SEED = "0"
#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Seconds a set-up child may take beyond the run time before it is
#: killed.
CHILD_SPARE_S = 120.0
#: Timed calls per workload in a traced run, untraced and traced each
#: (fixed, so the per-layer counts repeat exactly for a seed).
TRACE_CALLS = {"replay": 5, "drive": 3, "clr": 3}


def shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_shm_")}
    except FileNotFoundError:
        return set()


def stop_pools() -> None:
    """Shut the warm pools down and wait for every worker to exit."""
    from repro.parallel.backends import shutdown_warm_pools

    shutdown_warm_pools()
    deadline = time.monotonic() + 30.0
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


class Result:
    """Outcome of one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        #: Figures printed beside the gated metrics: name -> (value, unit).
        self.report: Dict[str, tuple] = {}
        self.meta: dict = {"workload": workload}

    def record(self, failures: List[str]) -> None:
        """One attempted operation and its failed checks."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures[:3])

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.failed += 1
        self.attempted = max(self.attempted, self.failed)

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0 and self.attempted > 0

    def contract(self, units: Dict[str, str]) -> dict:
        return {
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name]}
                for name in units
                if name in self.metrics
            },
        }


# -- set-up --------------------------------------------------------------------


def setup_samples(args) -> int:
    """Set-ups to measure: one suffices to test the harness."""
    return 1 if args.smoke else SETUP_SAMPLES


def setup_child(args, name: str, measure: bool) -> tuple:
    """Launch a process that sets ``name`` up; time it to ready.

    With ``measure`` the process goes on to time the workload's calls
    (see :func:`child_main`).  Returns ((seconds, host speed just
    before, unstolen CPU share), the child's measurement or None).
    """
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--child", "measure" if measure else "setup"]
    if args.smoke:
        command.append("--smoke")
    speed = host.speed()
    accounts = host.cpu_accounts()
    started = time.perf_counter()
    # Unbuffered, so that reading the ready line reads nothing after it.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             bufsize=0)
    try:
        for line in child.stdout:
            if line.strip() == b"ready":
                break
        else:
            raise RuntimeError(f"set-up of {name} exited before ready")
        sample = (
            time.perf_counter() - started,
            speed,
            host.unstolen_share(accounts, host.cpu_accounts()),
        )
        rest, _ = child.communicate(timeout=args.seconds + CHILD_SPARE_S)
    except BaseException:
        child.kill()
        child.communicate()
        raise
    if child.returncode != 0:
        raise RuntimeError(f"{name} child exited with {child.returncode}")
    return sample, json.loads(rest.splitlines()[-1]) if measure else None


def child_main(args) -> int:
    """Set one workload up, say ready, and with ``--child measure`` go
    on to time its calls, printing the outcome as one JSON line."""
    from workloads import make_batch_workload

    workload = make_batch_workload(args.workload, args.smoke, WORK)
    try:
        workload.setup(args.seed)
        print("ready", flush=True)
        if args.child == "measure":
            result = Result(args.workload)
            calls = timed_calls(workload, args, result)
            print(json.dumps({
                "calls": calls,
                "attempted": result.attempted,
                "failed": result.failed,
                "failures": result.failures,
                "report": workload.report(
                    statistics.median(call[0] for call in calls)
                ),
            }), flush=True)
    finally:
        workload.teardown()
        stop_pools()
    return 0


# -- batch workloads -------------------------------------------------------------


def timed_call(workload, index: int, result: Result):
    """One checked call: ((rate, host speed just before, unstolen CPU
    share), output)."""
    speed = host.speed()
    accounts = host.cpu_accounts()
    started = time.perf_counter()
    units, output = workload.call(index)
    rate = units / (time.perf_counter() - started)
    unstolen = host.unstolen_share(accounts, host.cpu_accounts())
    result.record(workload.check(index, output))
    return (rate, speed, unstolen), output


def timed_calls(workload, args, result: Result) -> list:
    """Time checked calls for ``args.seconds``; return their samples."""
    from workloads import Clr

    minimum = workload.min_calls
    if isinstance(workload, Clr) and not args.smoke:
        minimum = max(minimum, workload.calibration_calls())
    calls = []
    started = time.perf_counter()
    while len(calls) < minimum or (
        time.perf_counter() - started < args.seconds
    ):
        calls.append(timed_call(workload, len(calls), result)[0])
    for message in workload.final_checks():
        result.fail(message)
    return calls


def corrected(samples, rates: bool) -> float:
    """Median of (value, host speed, unstolen share) samples, each
    corrected as ``host.time_factor`` says; ``rates``: the values are
    rates rather than durations."""
    values = []
    for value, speed, unstolen in samples:
        factor = host.time_factor(speed, unstolen)
        values.append(value / factor if rates else value * factor)
    return statistics.median(values)


def run_batch(name: str, args, result: Result):
    from workloads import make_batch_workload, shard_metrics

    workload = make_batch_workload(name, args.smoke, WORK)
    result.meta.update(
        jobs=workload.jobs,
        telemetry="on" if workload.telemetry else "off",
        size=workload.size(),
    )
    if workload.jobs > usable_cpus():
        raise SystemExit(
            f"error: workload {name} runs {workload.jobs} pool workers "
            f"but this host offers {usable_cpus()} CPUs; refusing"
        )
    try:
        if args.trace:
            return run_batch_traced(name, args, workload, result,
                                    shard_metrics)
        # Every set-up is a fresh process; the last goes on to measure.
        setups, measured = [], None
        count = setup_samples(args)
        for i in range(count):
            sample, measured = setup_child(args, name, i == count - 1)
            setups.append(sample)
        calls = measured["calls"]
        result.attempted += measured["attempted"]
        result.failed += measured["failed"]
        result.failures.extend(measured["failures"])
        result.metrics = {
            "setup_s": corrected(setups, rates=False),
            "work_per_s": corrected(calls, rates=True),
        }
        result.report.update(measured["report"])
        result.report["setup_s_as_measured"] = (
            statistics.median(setup[0] for setup in setups), "s"
        )
        result.meta.update(
            setup_samples=setups,
            calls=calls,
            host_ref_ops_per_s=statistics.median(
                sample[1] for sample in setups + calls
            ),
        )
    finally:
        workload.teardown()
        stop_pools()


def run_batch_traced(name, args, workload, result, shard_metrics):
    from tracing import Tracer, layer_stats, span_metrics

    run_id = f"{name}-{args.seed}-{os.getpid()}"
    outer = Tracer(run_id)
    with outer.installed():
        workload.setup(args.seed)
    calls = 1 if args.smoke else TRACE_CALLS[name]
    # Alternate untraced and traced calls on the same inputs, so host
    # drift during the run weighs on both alike.
    untraced, traced = [], []
    for i in range(calls):
        untraced.append(timed_call(workload, i, result)[0])
        with outer.installed():
            sample, output = timed_call(workload, i, result)
        traced.append(sample)
    inline = Tracer(run_id + "-inline")
    if workload.jobs > 1:
        with inline.installed():
            _, inline_output = workload.inline_call()
        result.record(workload.check(0, inline_output))

    outer.write(WORK / f"trace-{name}.jsonl.gz")
    if len(inline):
        inline.write(WORK / f"trace-{name}-inline.jsonl.gz")
    spans, counts = layer_stats([inline, outer])
    metrics = {layer: 0.0 for layer, _, _ in spec.PER_LAYER}
    metrics.update(span_metrics(spans, counts))
    if name == "drive":
        metrics.update(shard_metrics(output))
    if name == "clr":
        # Only the LRD model draws heavy-tailed ON/OFF durations.
        frames, replications = workload.sizes["lrd"]
        metrics["models.heavy_tail.ppf.draws_per_frame"] = counts.get(
            "models.heavy_tail.ppf.draws", 0
        ) / (frames * replications)
    metrics["trace.overhead_ratio"] = (
        corrected(traced, rates=True) / corrected(untraced, rates=True)
    )
    metrics["host.ref_ops_per_s"] = statistics.median(
        sample[1] for sample in untraced + traced
    )
    result.metrics = metrics
    result.meta.update(
        calls=calls,
        untraced_work_per_s=untraced,
        traced_work_per_s=traced,
        host_ref_ops_per_s=metrics["host.ref_ops_per_s"],
        spans_recorded=len(outer) + len(inline),
    )


# -- the wire ----------------------------------------------------------------


def run_wire(args, result: Result) -> None:
    import wire

    result.meta.update(
        jobs=1,
        telemetry="off",
        size={
            "links": wire.N_LINKS,
            "connections": wire.N_CONNECTIONS,
            "window": wire.WINDOW,
            "open_rates": list(wire.OPEN_RATES),
            "rho": wire.RHO,
            "classes": "video + conference, effective-bandwidth",
        },
    )
    if wire.N_CONNECTIONS > usable_cpus():
        raise SystemExit(
            f"error: the wire client opens {wire.N_CONNECTIONS} "
            f"connections but this host offers {usable_cpus()} CPUs"
        )
    # A traced run holds two sessions, an untraced and a traced one.
    seconds = args.seconds / 2 if args.trace else args.seconds
    streams = wire.build_streams(args.seed, seconds)
    result.meta["stream_events"] = [len(s.requests) for s in streams]
    if args.trace:
        return run_wire_traced(result, streams, seconds)

    setups = []  # (seconds, host speed just before, unstolen share)
    server = None
    try:
        for _ in range(setup_samples(args)):
            if server is not None and not server.stop():
                result.fail("server did not stop cleanly on SIGINT")
            speed = host.speed()
            accounts = host.cpu_accounts()
            server = wire.Server()
            setups.append((
                server.ready_seconds,
                speed,
                host.unstolen_share(accounts, host.cpu_accounts()),
            ))
        session = wire.run_session(server, streams, args.seconds)
    finally:
        if server is not None and not server.stop():
            result.fail("server did not stop cleanly on SIGINT")
    result.attempted += session["attempted"]
    result.failed += session["failed"]
    result.failures.extend(session["failures"])
    result.metrics = {
        "setup_s": corrected(setups, rates=False),
        "work_per_s": session["wire_rps_corrected"],
    }
    result.report.update(
        wire_rps=(session["wire_rps"], "1/s"),
        admit_p50_us=(session["admit_p50_us"], "us"),
        admit_p99_us=(session["admit_p99_us"], "us"),
        max_rps_under_slo=(session["max_rps_under_slo"], "1/s"),
        setup_s_as_measured=(
            statistics.median(setup[0] for setup in setups), "s"
        ),
    )
    result.meta.update(
        setup_samples=setups,
        host_ref_ops_per_s=statistics.median(
            [setup[1] for setup in setups] + session["host_speeds"]
        ),
        session={k: v for k, v in session.items() if k != "failures"},
    )


def run_wire_traced(result: Result, streams, seconds: float) -> None:
    import wire

    sessions = {}
    trace_out = WORK / "trace-wire-server.json"
    for label, out in (("untraced", None), ("traced", trace_out)):
        server = wire.Server(trace_out=out)
        try:
            sessions[label] = wire.run_session(server, streams, seconds)
        finally:
            if not server.stop():
                result.fail(f"{label} server did not stop cleanly")
        session = sessions[label]
        result.attempted += session["attempted"]
        result.failed += session["failed"]
        result.failures.extend(session["failures"])

    from tracing import span_metrics

    dump = json.loads(trace_out.read_text(encoding="utf-8"))
    spans, counts = dump["spans"], dump["counts"]
    untraced, traced = sessions["untraced"], sessions["traced"]
    frontend_s = sum(
        spans.get(f"service.frontend.{op}", {}).get("total_s", 0.0)
        for op in ("admit", "release")
    )
    metrics = {layer: 0.0 for layer, _, _ in spec.PER_LAYER}
    metrics.update(span_metrics(spans, counts))
    metrics.update({
        "wire.server_cpu_us_per_req": untraced["server_cpu_us_per_req"],
        "wire.client_cpu_us_per_req": untraced["client_cpu_us_per_req"],
        "wire.server_self_us_per_req": (
            (traced["server_cpu_s"] - frontend_s) / traced["requests"] * 1e6
            if traced["requests"] else 0.0
        ),
        "wire.generator_lag_ms": untraced["generator_lag_ms"],
        "wire.backlog_max": untraced["backlog_max"],
        "wire.admit_p50_us": untraced["admit_p50_us"],
        "wire.admit_p99_us": untraced["admit_p99_us"],
        "wire.max_rps_under_slo": untraced["max_rps_under_slo"],
        "trace.overhead_ratio": (
            traced["wire_rps_corrected"] / untraced["wire_rps_corrected"]
        ),
        "host.ref_ops_per_s": statistics.median(
            untraced["host_speeds"] + traced["host_speeds"]
        ),
    })
    result.metrics = metrics
    result.meta.update(
        host_ref_ops_per_s=metrics["host.ref_ops_per_s"],
        sessions={
            label: {k: v for k, v in s.items() if k != "failures"}
            for label, s in sessions.items()
        },
    )


# -- command line ------------------------------------------------------------


def run_workload(name: str, args) -> Result:
    result = Result(name)
    result.meta["unit_of_work"] = spec.UNIT_OF_WORK[name]
    before = shm_segments()
    steal_before = host.cpu_accounts()[1]
    try:
        if name == "wire":
            run_wire(args, result)
        else:
            run_batch(name, args, result)
    except SystemExit:
        raise
    except Exception as exc:  # a crashed workload is a failed run
        result.fail(f"{type(exc).__name__}: {exc}")
    leaked = shm_segments() - before
    if leaked:
        result.fail(f"shared-memory segments left behind: {sorted(leaked)}")
    import numpy

    result.meta.update(
        host_steal_s=host.cpu_accounts()[1] - steal_before,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        cpu_count=os.cpu_count(),
        usable_cpus=usable_cpus(),
        git_sha=git_sha(),
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    result.report["failed_ratio"] = (
        result.failed / result.attempted if result.attempted else 1.0,
        "ratio",
    )
    return result


def print_report(result: Result, units: Dict[str, str]) -> None:
    name = result.workload
    for metric, unit in units.items():
        value = result.metrics.get(metric)
        if value is not None:
            print(f"{name}: {metric} = {value:.6g} {unit}")
    for metric, (value, unit) in result.report.items():
        print(f"{name}: {metric} = {value:.6g} {unit}")
    for failure in result.failures:
        print(f"{name}: FAILED CHECK: {failure}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark."
    )
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the harness")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.child and args.workload in (None, "wire"):
        parser.error("--child needs a batch --workload")
    return args


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Start over with the fixed hash seed; the children inherit it.
        os.execve(
            sys.executable,
            [sys.executable, str(HERE / "run.py"), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    if argv is None:
        procs.guard()
    args = parse_args(argv)
    if args.write_benchmark_json:
        spec.write_benchmark_json(ROOT / "BENCHMARK.json")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    if args.child:
        return child_main(args)

    units = spec.PER_LAYER_UNITS if args.trace else spec.END_TO_END_UNITS
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    results = []
    for name in names:
        result = run_workload(name, args)
        results.append(result)
        print_report(result, units)
        print(json.dumps({"meta": result.meta}, default=str))

    if len(results) == 1:
        final = results[0].contract(units)
    else:
        final = {
            "correct": all(r.correct for r in results),
            "attempted": sum(max(r.attempted, 1) for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {
                f"{r.workload}.{name}": {"value": r.metrics[name],
                                         "unit": unit}
                for r in results
                for name, unit in units.items()
                if name in r.metrics
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
