"""The batch workloads: replay, drive and the CLR simulation.

Each workload builds its inputs from the seed in :meth:`setup`, then
the harness times repeated :meth:`call` invocations of one stated
size and checks every result with :meth:`check`.  ``work_per_s`` is
the median over calls of units of work divided by the call's wall
time.
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

#: OC-3 link, 20 ms delay budget and CLR 1e-6: the service defaults.
LINK_MBPS = 155.52
DELAY_SECONDS = 0.020
TARGET_CLR = 1e-6
#: Mean connection holding time (s) of the service workloads.
HOLDING_SECONDS = 90.0
N_LINKS = 4

#: Zero-buffer CLR every model of Figs. 8-10 starts from (paper
#: Section 5.5): all share one Gaussian marginal.
PAPER_CLR_AT_ZERO = 1.2e-5
#: Accepted band around it per model, for an estimate pooled over the
#: first calls of a run that hold at least ``CALIBRATION_FRAMES``
#: frames.  Over 24 seeds the DAR(3) fit's estimate (2 calls, 128k
#: frames) spread from 9.2e-6 to 2.2e-5.  Z^0.975's (2 calls, 16k
#: frames) spread from 9.2e-8 to 4.6e-5, because the LRD level wanders
#: slowly, so only its upper end is checked.  A broken sampler or
#: kernel misses these by orders of magnitude.
CLR_AT_ZERO_BAND = {
    "lrd": (0.0, PAPER_CLR_AT_ZERO * 10.0),
    "markov": (PAPER_CLR_AT_ZERO / 4.0, PAPER_CLR_AT_ZERO * 4.0),
}
CALIBRATION_FRAMES = 16_000
#: Allowed relative error of the mean arrivals per frame.
MEAN_RATE_TOLERANCE = 0.05


def _service_link():
    from repro.atm.qos import QoSRequirement
    from repro.utils.units import mbps_to_cells_per_frame

    return (
        mbps_to_cells_per_frame(LINK_MBPS),
        QoSRequirement(max_delay_seconds=DELAY_SECONDS, max_clr=TARGET_CLR),
    )


class BatchWorkload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    #: Pool workers the timed call uses (1: inline).
    jobs = 1
    #: Whether the shipped path runs with telemetry on.
    telemetry = False
    #: Timed calls a run makes at least, however long they take.
    min_calls = 2

    def __init__(self, smoke: bool, work_dir: Path):
        self.smoke = smoke
        self.work_dir = work_dir
        self.seed = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def call(self, index: int) -> Tuple[int, object]:
        """Run one timed call; return (units of work, result)."""
        raise NotImplementedError

    def check(self, index: int, result) -> List[str]:
        """Failed output checks of one call (empty when correct)."""
        raise NotImplementedError

    def final_checks(self) -> List[str]:
        """Checks over every call of the run."""
        return []

    def inline_call(self) -> Optional[Tuple[int, object]]:
        """One call at jobs=1 on the same inputs, for tracing the
        layers that otherwise run inside pool workers."""
        return None

    def size(self) -> dict:
        raise NotImplementedError

    def report(self, work_per_s: float) -> dict:
        """The run's figures as measured: name -> (value, unit)."""
        return {"decisions_per_s": (work_per_s, "1/s")}

    def teardown(self) -> None:
        pass

    def _warm_pool(self) -> None:
        if self.jobs > 1:
            from repro.parallel.backends import warm_pool

            warm_pool(self.jobs).warm()


class _TableFileMixin:
    """A decision-table file warmed during set-up, so the timed calls
    load their boundaries instead of inverting Bahadur-Rao."""

    def _warm_table(self, lookups) -> int:
        from repro.service import DecisionTableCache

        self.table_path = (
            self.work_dir / f"tables-{self.name}-{os.getpid()}.jsonl"
        )
        if self.table_path.exists():
            self.table_path.unlink()
        tables = DecisionTableCache(path=self.table_path)
        first = None
        for model, policy in lookups:
            decision = tables.lookup(model, self.capacity, self.qos, policy)
            first = decision if first is None else first
        return first.admissible

    def teardown(self) -> None:
        path = getattr(self, "table_path", None)
        if path is not None and path.exists():
            path.unlink()


class Replay(_TableFileMixin, BatchWorkload):
    """``replay_workload``: 4 conference links at rho 0.6, serial."""

    name = "replay"
    rho = 0.6

    def __init__(self, smoke: bool, work_dir: Path):
        super().__init__(smoke, work_dir)
        self.requests_per_link = 200 if smoke else 5000

    def setup(self, seed: int) -> None:
        from repro.service import WorkloadSpec, derive_arrival_rate
        from repro.service.cli import build_class

        self.seed = seed
        self.capacity, self.qos = _service_link()
        self.classes = [build_class("conference")]
        self.admissible = self._warm_table(
            [(self.classes[0].model, "bahadur-rao")]
        )
        self.spec = WorkloadSpec(
            n_requests=self.requests_per_link,
            arrival_rate=derive_arrival_rate(
                self.rho, self.admissible, HOLDING_SECONDS
            ),
            mean_holding_time=HOLDING_SECONDS,
        )
        self.first = None

    def size(self) -> dict:
        return {
            "links": N_LINKS,
            "requests_per_link": self.requests_per_link,
            "rho": self.rho,
            "class": "conference",
        }

    def call(self, index: int):
        from repro.service import replay_workload

        summary = replay_workload(
            self.spec,
            self.classes,
            n_links=N_LINKS,
            capacity=self.capacity,
            qos=self.qos,
            policy="bahadur-rao",
            rng=self.seed,
            table_path=str(self.table_path),
        )
        return summary.n_requests, summary

    def check(self, index: int, summary) -> List[str]:
        failures = []
        if summary.boundary_violations != 0:
            failures.append(
                f"{summary.boundary_violations} boundary violations"
            )
        if summary.n_requests != N_LINKS * self.requests_per_link:
            failures.append(f"{summary.n_requests} requests replayed")
        if summary.admitted + summary.blocked + summary.shed != (
            summary.n_requests
        ):
            failures.append("admitted + blocked + shed != requests")
        for link in summary.links:
            if link.peak_occupancy > link.admissible:
                failures.append(
                    f"link {link.link_index} peak occupancy "
                    f"{link.peak_occupancy} > admissible {link.admissible}"
                )
        if self.first is None:
            self.first = summary
        elif summary != self.first:
            failures.append("summary differs from the first call's")
        return failures


class Drive(_TableFileMixin, BatchWorkload):
    """``drive()`` as ``runner drive --jobs 2`` ships it.

    The size is the command's default of 10000 requests per link per
    rho point.  Every rho point also pays a fixed cost (session submit
    and wait, the shared-memory table attach, the telemetry merge); at
    1000 requests per link that cost held decisions/s about 20 % below
    the shipped size's, so a smaller run would over-weight dispatch.
    """

    name = "drive"
    jobs = 2
    telemetry = True
    n_shards = 2
    # A call takes 7-9 s.  Over ten runs of two calls each, work_per_s
    # spread (IQR / median) by 0.09 and 0.15; the median of three
    # keeps one slow call from setting the figure.
    min_calls = 3

    def __init__(self, smoke: bool, work_dir: Path):
        super().__init__(smoke, work_dir)
        self.requests_per_link = 100 if smoke else 10_000

    def setup(self, seed: int) -> None:
        from repro.service.cli import build_class

        self.seed = seed
        self.capacity, self.qos = _service_link()
        self.classes = [build_class("video")]
        model = self.classes[0].model
        # drive() looks up the primary and its peak-rate fallback.
        self.admissible = self._warm_table(
            [(model, "bahadur-rao"), (model, "peak-rate")]
        )
        self._warm_pool()
        self.first = None

    def size(self) -> dict:
        return {
            "links": N_LINKS,
            "shards": self.n_shards,
            "requests_per_link_per_rho": self.requests_per_link,
            "rho_grid": "drive() default",
            "class": "video",
        }

    def _drive(self, jobs):
        from repro.service import drive

        return drive(
            self.classes,
            n_links=N_LINKS,
            capacity=self.capacity,
            qos=self.qos,
            policy="bahadur-rao",
            requests_per_link=self.requests_per_link,
            n_shards=self.n_shards,
            seed=self.seed,
            jobs=jobs,
            table_path=str(self.table_path),
        )

    def call(self, index: int):
        report = self._drive(self.jobs)
        return report.n_requests, report

    def inline_call(self):
        report = self._drive(None)
        return report.n_requests, report

    def check(self, index: int, report) -> List[str]:
        failures = []
        if report.boundary_violations != 0:
            failures.append(
                f"{report.boundary_violations} boundary violations"
            )
        for point in report.points:
            if point.admitted + point.blocked + point.shed != (
                point.n_requests
            ):
                failures.append(
                    f"rho {point.rho}: admitted + blocked + shed != requests"
                )
            if point.n_requests != N_LINKS * self.requests_per_link:
                failures.append(
                    f"rho {point.rho}: {point.n_requests} requests"
                )
            if point.peak_occupancy > report.admissible:
                failures.append(
                    f"rho {point.rho}: peak occupancy "
                    f"{point.peak_occupancy} > admissible "
                    f"{report.admissible}"
                )
        counters = [
            (p.admitted, p.blocked, p.shed, p.fallbacks, p.peak_occupancy)
            for p in report.points
        ]
        if self.first is None:
            self.first = counters
        elif counters != self.first:
            failures.append("decision counters differ from the first call's")
        return failures


def shard_metrics(report) -> dict:
    """Per-shard load of one drive report, summed over its rho points."""
    requests: dict = {}
    busy: dict = {}
    for point in report.points:
        for shard in point.shards:
            requests[shard.shard_index] = (
                requests.get(shard.shard_index, 0) + shard.n_requests
            )
            busy[shard.shard_index] = (
                busy.get(shard.shard_index, 0.0) + shard.elapsed_seconds
            )
    counts = list(requests.values())
    mean = sum(counts) / len(counts) if counts else 0.0
    return {
        "service.drive.shard.requests_max": max(counts, default=0),
        "service.drive.shard.requests_mean": mean,
        "service.drive.shard.busy_s_max": max(busy.values(), default=0.0),
        "service.drive.shard_imbalance": (
            max(counts) / mean if mean else 0.0
        ),
    }


class Clr(BatchWorkload):
    """``replicated_clr_curve`` of Z^0.975 and of its DAR(3) fit.

    One call is one side-by-side comparison, as in Fig. 9: the LRD
    model's CLR-vs-buffer curve on Fig. 8's grid (N = 30, c = 538),
    then its Markov fit's.  The stated sizes give each model about
    half of a call's time, so a change to either sampler moves
    ``work_per_s``; eight replications per curve make ``jobs=2`` ship
    batches of two, so the workers run the batched Lindley kernel.

    Each replication also pays a fixed cost: equilibrium draws and
    renewal padding for Z, the warm-up recursion for DAR(3).  The
    horizons are long enough that frames/s no longer depends on them:
    Z ran at about 3.0k frames/s over 250 frames but 3.3k over 1000 and
    3.2k over 4000; DAR(3) at 22k over 2000 frames but 28.5k over 8000
    and 29k over 16000.  Longer runs of the paper's depth sample at
    the same rate.
    """

    name = "clr"
    jobs = 2

    def __init__(self, smoke: bool, work_dir: Path):
        super().__init__(smoke, work_dir)
        #: label -> (frames, replications) of one curve.
        self.sizes = {
            "lrd": (100, 8) if smoke else (1000, 8),
            # The DAR(3) recursion also warms up ~580 frames per
            # replication, which these frames do not count.
            "markov": (400, 8) if smoke else (8000, 8),
        }

    def setup(self, seed: int) -> None:
        from repro.constants import C_PER_SOURCE_BOP, N_SOURCES_BOP
        from repro.experiments.fig08 import DELAYS_MSEC
        from repro.models import make_s, make_z
        from repro.queueing import ATMMultiplexer
        from repro.utils.units import delay_to_buffer_cells

        self.seed = seed
        self.mux = {}
        self.buffers = {}
        for label, model in (("lrd", make_z(0.975)),
                             ("markov", make_s(3, 0.975))):
            mux = ATMMultiplexer(
                model, N_SOURCES_BOP, C_PER_SOURCE_BOP, buffer_cells=0.0
            )
            self.mux[label] = mux
            self.buffers[label] = np.array(
                [
                    delay_to_buffer_cells(
                        d / 1e3, mux.capacity, model.frame_duration
                    )
                    for d in DELAYS_MSEC
                ]
            )
        self.mean_per_frame = N_SOURCES_BOP * self.mux["lrd"].model.mean
        #: label -> curves of the timed calls, and their frames/s.
        self.curves = {label: [] for label in self.sizes}
        self.frames_per_s = {label: [] for label in self.sizes}
        self._warm_pool()

    def size(self) -> dict:
        return {
            "models": "Z^0.975 (lrd) and its DAR(3) fit (markov)",
            "n_sources": 30,
            "c_per_source": 538.0,
            "buffers_ms": "0 1 2 4 8 12 16 20",
            "frames_x_replications": {
                label: list(size) for label, size in self.sizes.items()
            },
        }

    def _curves(self, index: int, **execution):
        import time

        from repro.queueing import replication

        out = {}
        for label, (frames, replications) in self.sizes.items():
            started = time.perf_counter()
            # Each call draws fresh replications, so the run's calls
            # pool into one calibration estimate per model.
            out[label] = replication.replicated_clr_curve(
                self.mux[label],
                self.buffers[label],
                frames,
                replications,
                rng=np.random.SeedSequence([self.seed, index]),
                **execution,
            )
            out[label + "_s"] = time.perf_counter() - started
        return out

    def call(self, index: int):
        result = self._curves(index, jobs=self.jobs)
        for label, (frames, replications) in self.sizes.items():
            self.curves[label].append(result[label])
            self.frames_per_s[label].append(
                frames * replications / result[label + "_s"]
            )
        return 1, result

    def inline_call(self):
        from repro.parallel.backends import SerialBackend

        # The batch size jobs=2 auto-sizes to, so the inline pass runs
        # the workers' code path (the batched kernel) in this process.
        batches = {
            -(-replications // (self.jobs * 2))
            for _, replications in self.sizes.values()
        }
        (batch,) = batches
        return 1, self._curves(0, backend=SerialBackend(), batch=batch)

    def report(self, work_per_s: float) -> dict:
        return {
            "clr_comparisons_per_s": (work_per_s, "1/s"),
            **{
                f"{label}_frames_per_s": (statistics.median(rates), "1/s")
                for label, rates in self.frames_per_s.items()
                if rates
            },
        }

    def check(self, index: int, result) -> List[str]:
        failures = []
        for label, (frames, replications) in self.sizes.items():
            curve = result[label]
            if curve.degraded or curve.n_failed:
                failures.append(
                    f"{label}: {curve.n_failed} failed replications "
                    f"(degraded={curve.degraded})"
                )
            clr = np.asarray(curve.clr)
            if not np.all(np.isfinite(clr)) or np.any(clr < 0):
                failures.append(f"{label}: CLR not finite, >= 0: {clr}")
            if np.any(np.diff(clr) > 0):
                failures.append(f"{label}: CLR grows with buffer: {clr}")
            mean = curve.total_arrived / (frames * replications)
            if abs(mean / self.mean_per_frame - 1.0) > MEAN_RATE_TOLERANCE:
                failures.append(
                    f"{label}: mean arrivals {mean:.1f} cells/frame, "
                    f"expected {self.mean_per_frame:.1f}"
                )
        return failures

    def calibration_calls(self) -> int:
        """Calls whose pooled zero-buffer CLR is checked."""
        return max(
            -(-CALIBRATION_FRAMES // (f * r)) for f, r in self.sizes.values()
        )

    def final_checks(self) -> List[str]:
        needed = self.calibration_calls()
        failures = []
        for label, curves in self.curves.items():
            if self.smoke or len(curves) < needed:
                continue
            pooled = curves[:needed]
            lost = sum(float(c.clr[0]) * c.total_arrived for c in pooled)
            clr0 = lost / sum(c.total_arrived for c in pooled)
            low, high = CLR_AT_ZERO_BAND[label]
            if not low <= clr0 <= high:
                failures.append(
                    f"{label}: zero-buffer CLR {clr0:.3g} over {needed} "
                    f"calls is outside [{low:.3g}, {high:.3g}] around the "
                    f"paper's {PAPER_CLR_AT_ZERO:g}"
                )
        return failures


def make_batch_workload(name: str, smoke: bool, work_dir: Path):
    if name == "replay":
        return Replay(smoke, work_dir)
    if name == "drive":
        return Drive(smoke, work_dir)
    if name == "clr":
        return Clr(smoke, work_dir)
    raise KeyError(name)
