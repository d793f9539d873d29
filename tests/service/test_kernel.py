"""Cross-path parity of the shared per-request step.

``replay_link``, a ``drive`` shard and ``adaptive_replay_link`` all
process a request with :meth:`repro.service.kernel.LinkLane.step`, so
on the same seeded stream they must make the same decisions:

* an adaptive replay with a one-regime plan and no adaptation is a
  plain ``replay_link`` — every counter, the table hit/miss totals
  and the carried-load float agree bit for bit;
* a ``drive`` sweep that sheds agrees with per-link ``replay_link``
  runs under the same overload policy (``tests/service/test_drive.py``
  only checks a sweep that never sheds);
* :meth:`LinkLane.run`, which commits the requests a count-policy link
  admits below its boundary in chunks, leaves the lane and engine in
  the state a :meth:`LinkLane.step` per request leaves.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adaptive.nonstationary import parse_regime_plan
from repro.adaptive.recompute import adaptive_replay_link
from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.service.cli import build_class
from repro.service.drive import derive_arrival_rate, drive
from repro.service.engine import AdmissionEngine
from repro.service.kernel import HEADROOM, LinkLane
from repro.service.overload import OverloadPolicy
from repro.service.replay import replay_link
from repro.service.tables import (
    CAC_METHODS,
    Decision,
    DecisionTableCache,
    decision_key,
)
from repro.service.workload import (
    HOLDING_LAWS,
    Workload,
    WorkloadSpec,
    generate_workload,
)
from repro.utils.rng import spawn_generators
from repro.utils.units import mbps_to_cells_per_frame

CAPACITY = mbps_to_cells_per_frame(155.52)
QOS = QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)
SEED = 20260806
HOLDING_SECONDS = 90.0


class TestAdaptiveMatchesReplay:
    """Check (a): one regime, no adaptation, same generator."""

    def test_one_regime_static_replay_equals_replay_link(self):
        conference = build_class("conference")
        spec = WorkloadSpec(
            n_requests=3000, arrival_rate=2.0, mean_holding_time=90.0
        )
        adaptive = adaptive_replay_link(
            spec,
            (conference,),
            parse_regime_plan("conference@0"),
            (conference,),
            capacity=CAPACITY,
            qos=QOS,
            policy="bahadur-rao",
            rng=np.random.default_rng(SEED),
            adapt=False,
        )
        plain = replay_link(
            spec,
            (conference,),
            capacity=CAPACITY,
            qos=QOS,
            policy="bahadur-rao",
            rng=np.random.default_rng(SEED),
        )
        assert adaptive.n_requests == plain.n_requests
        assert adaptive.admitted == plain.admitted
        assert adaptive.blocked == plain.blocked
        assert adaptive.peak_occupancy == plain.peak_occupancy
        assert adaptive.boundary_violations == plain.boundary_violations == 0
        assert adaptive.cache_hits == plain.cache_hits
        assert adaptive.cache_misses == plain.cache_misses
        assert adaptive.carried_load_seconds.hex() == (
            plain.carried_load_seconds.hex()
        )
        assert adaptive.elapsed_seconds == plain.elapsed_seconds
        # The stream is past the boundary: the check is not vacuous.
        assert plain.blocked > 0
        assert plain.peak_occupancy == plain.admissible


class TestDriveMatchesReplayUnderShedding:
    """Check (b): a shedding drive equals per-link replays."""

    N_LINKS = 3
    N_REQUESTS = 1500

    def test_shedding_drive_equals_replay_link(self):
        video = build_class("video")
        overload = OverloadPolicy(max_queue_depth=2, decision_seconds=0.5)
        report = drive(
            (video,),
            n_links=self.N_LINKS,
            capacity=CAPACITY,
            qos=QOS,
            rho_grid=(1.2,),
            requests_per_link=self.N_REQUESTS,
            seed=SEED,
            overload=overload,
        )
        point = report.points[0]
        spec = WorkloadSpec(
            n_requests=self.N_REQUESTS,
            arrival_rate=point.arrival_rate,
            mean_holding_time=report.mean_holding_time,
        )
        generators = spawn_generators(SEED, self.N_LINKS)
        links = [
            replay_link(
                spec,
                (video,),
                capacity=CAPACITY,
                qos=QOS,
                policy="bahadur-rao",
                rng=generators[i],
                link_index=i,
                overload=overload,
            )
            for i in range(self.N_LINKS)
        ]
        assert point.n_requests == sum(s.n_requests for s in links)
        assert point.admitted == sum(s.admitted for s in links)
        assert point.blocked == sum(s.blocked for s in links)
        assert point.shed == sum(s.shed for s in links)
        assert point.fallbacks == sum(s.fallbacks for s in links)
        assert point.peak_occupancy == max(s.peak_occupancy for s in links)
        assert point.boundary_violations == 0
        # The policy really sheds, so shed accounting is compared.
        assert point.shed > 0


def _lane(workload, policy, admissible):
    """A lane on a table holding one boundary (no inversion needed)."""
    model = build_class("conference").model
    tables = DecisionTableCache(persist=False)
    key = decision_key(model, CAPACITY, QOS, policy)
    tables.load_text(
        json.dumps(Decision(key, policy, admissible, CAPACITY).to_dict())
    )
    engine = AdmissionEngine(
        "link-0", CAPACITY, QOS, policy=policy, tables=tables
    )
    return LinkLane(engine, workload, [model])


def _stepped(workload, policy, admissible):
    lane = _lane(workload, policy, admissible)
    for i in range(workload.n_requests):
        lane.step(i)
    return lane


def _run(workload, policy, admissible):
    lane = _lane(workload, policy, admissible)
    lane.run(0, workload.n_requests)
    return lane


def _hexed(departures):
    return [(t.hex(), connection_id) for t, connection_id in departures]


def _state(lane):
    """Everything a replay reads or a snapshot carries, exactly."""
    engine = lane.engine
    return {
        # The mix in its order, the counts and the float accumulators.
        "engine": engine.export_state(),
        # A zero count is absent, as release leaves it.
        "class_counts": dict(engine.class_counts),
        # The layout may differ; the pop order may not.
        "departures": _hexed(sorted(lane.departures)),
        "carried_load_seconds": lane.carried_load_seconds.hex(),
        "last_event_time": lane.last_event_time.hex(),
        "boundary_violations": lane.boundary_violations,
        "table": (engine.tables.hits, engine.tables.misses),
    }


class TestRunMatchesStep:
    """Check (c): the batched run against a step per request."""

    #: Hand-built streams ``Workload`` refuses, so no lane replays
    #: them, and what its error says.
    REFUSED = {
        "negative holding": "holding_times must be finite and non-negative",
        "arrivals out of order": "arrival_times must be non-decreasing",
        "nan holding": "holding_times must be finite and non-negative",
    }

    @given(
        rho=st.floats(min_value=0.3, max_value=1.2),
        admissible=st.integers(min_value=1, max_value=144),
        policy=st.sampled_from(CAC_METHODS),
        holding=st.sampled_from(HOLDING_LAWS),
        n_requests=st.integers(min_value=1, max_value=3000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    @example(0.99, 144, "bahadur-rao", "heavy-tailed", 3000, 7)
    @example(0.99, 27, "peak-rate", "exponential", 3000, 8)
    def test_generated_workloads(
        self, rho, admissible, policy, holding, n_requests, seed
    ):
        spec = WorkloadSpec(
            n_requests=n_requests,
            arrival_rate=derive_arrival_rate(
                rho, admissible, HOLDING_SECONDS
            ),
            mean_holding_time=HOLDING_SECONDS,
            holding=holding,
        )
        workload = generate_workload(
            spec, [build_class("conference")], np.random.default_rng(seed)
        )
        assert _state(_run(workload, policy, admissible)) == _state(
            _stepped(workload, policy, admissible)
        )

    @staticmethod
    def _hand_built(case):
        rng = np.random.default_rng(20261019)
        n = 400
        arrivals = np.arange(1.0, n + 1.0)
        holdings = rng.exponential(40.0, size=n)
        if case == "equal arrivals":
            arrivals = np.repeat(np.arange(1.0, n / 4 + 1.0), 4)
        elif case == "departure at a later arrival":
            # Whole numbers: every departure lands on an arrival.
            holdings = rng.integers(1, 80, size=n).astype(float)
        elif case == "zero holding":
            # The last one is still up at the end: no arrival drains it.
            holdings[::37] = 0.0
            holdings[-1] = 0.0
        elif case == "negative holding":
            holdings[5::41] = -3.0
        elif case == "departure rounds to its arrival":
            # Arrivals 2**-12 apart in float: the holding vanishes.
            arrivals = arrivals + 2.0**40
            holdings[::43] = 1e-6
        elif case == "arrivals out of order":
            arrivals[50:60] = arrivals[50:60][::-1]
        elif case == "nan holding":
            holdings[100] = np.nan
        return Workload(
            arrival_times=arrivals,
            holding_times=holdings,
            class_indices=np.zeros(n, dtype=np.int64),
        )

    @pytest.mark.parametrize("admissible", [1, 20, 40, 144])
    @pytest.mark.parametrize(
        "case",
        [
            "equal arrivals",
            "departure at a later arrival",
            "zero holding",
            "negative holding",
            "departure rounds to its arrival",
            "arrivals out of order",
            "nan holding",
        ],
    )
    def test_hand_built_workloads(self, case, admissible):
        if case in self.REFUSED:
            with pytest.raises(ParameterError, match=self.REFUSED[case]):
                self._hand_built(case)
            return
        workload = self._hand_built(case)
        assert _state(_run(workload, "bahadur-rao", admissible)) == _state(
            _stepped(workload, "bahadur-rao", admissible)
        )

    def test_batch_runs_below_the_boundary(self):
        """At rho 0.6 of N = 144 no request needs admit or release."""
        spec = WorkloadSpec(
            n_requests=5000,
            arrival_rate=derive_arrival_rate(0.6, 144, HOLDING_SECONDS),
            mean_holding_time=HOLDING_SECONDS,
        )
        workload = generate_workload(
            spec, [build_class("conference")], np.random.default_rng(SEED)
        )
        engine = _lane(workload, "bahadur-rao", 144).engine
        calls = []
        engine.admit = lambda *a, **k: calls.append("admit")
        engine.release = lambda *a, **k: calls.append("release")
        # A lane binds admit and release when it is built.
        lane = LinkLane(engine, workload, [build_class("conference").model])
        lane.run(0, workload.n_requests)
        assert calls == []
        stepped = _stepped(workload, "bahadur-rao", 144)
        assert _state(lane) == _state(stepped)
        # Connections came and went: the run was not trivial.
        assert engine.released > 0
        assert engine.tables.hits == workload.n_requests

    def test_boundary_check_counts_a_mismatch(self):
        """A commit the pass did not predict is a boundary violation."""
        spec = WorkloadSpec(
            n_requests=2000,
            arrival_rate=derive_arrival_rate(0.6, 144, HOLDING_SECONDS),
            mean_holding_time=HOLDING_SECONDS,
        )
        workload = generate_workload(
            spec, [build_class("conference")], np.random.default_rng(SEED)
        )
        lane = _lane(workload, "bahadur-rao", 144)
        engine = lane.engine
        commit_run = engine.commit_run
        phantoms = iter(["phantom"])

        def add_a_connection(model, admits, released, survivors):
            return commit_run(
                model, admits, released, survivors + list(phantoms)
            )

        engine.commit_run = add_a_connection
        lane.run(0, workload.n_requests)
        assert lane.boundary_violations == 1

    def test_steps_near_the_boundary(self):
        """Below HEADROOM connections of slack every request steps."""
        spec = WorkloadSpec(
            n_requests=300,
            arrival_rate=derive_arrival_rate(1.2, HEADROOM, HOLDING_SECONDS),
            mean_holding_time=HOLDING_SECONDS,
        )
        workload = generate_workload(
            spec, [build_class("conference")], np.random.default_rng(SEED)
        )
        lane = _lane(workload, "bahadur-rao", HEADROOM - 1)
        engine = lane.engine
        engine.commit_run = None  # never reached
        lane.run(0, workload.n_requests)
        assert engine.admitted + engine.blocked == workload.n_requests
        assert engine.blocked > 0
