"""Tests for background recompute, hot swap, and the adaptive replay.

The acceptance scenario from the issue lives here: a seeded
conference-to-video regime switch where the static table sails past
the CLR target while the adaptive run detects, rebuilds off the hot
path, swaps exactly once (generation +1), and holds the target — with
zero dropped requests and byte-identical serial/parallel summaries.
"""

import json

import numpy as np
import pytest

from repro.adaptive.nonstationary import parse_regime_plan
from repro.adaptive.recompute import (
    RecomputeEngine,
    adaptive_replay,
    adaptive_replay_link,
    match_model,
    observed_clr,
    rebuild_table_text,
)
from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.service.cli import build_class
from repro.service.tables import (
    DecisionTableCache,
    decision_key,
)
from repro.service.workload import WorkloadSpec
from repro.utils.units import mbps_to_cells_per_frame

CAPACITY = mbps_to_cells_per_frame(155.52)
QOS = QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)
CONFERENCE = build_class("conference")
VIDEO = build_class("video")
SWITCH_PLAN = parse_regime_plan("conference@0,video@3000")
DEMO_SPEC = WorkloadSpec(
    n_requests=8000,
    arrival_rate=40.0 / 30.0,
    mean_holding_time=30.0,
)
DEMO_SEED = 20260806


def _demo_replay(adapt, n_links=1, jobs=None):
    return adaptive_replay(
        DEMO_SPEC,
        (CONFERENCE,),
        SWITCH_PLAN,
        (CONFERENCE, VIDEO),
        n_links=n_links,
        capacity=CAPACITY,
        qos=QOS,
        policy="bahadur-rao",
        rng=DEMO_SEED,
        adapt=adapt,
        jobs=jobs,
    )


class TestObservedCLR:
    def test_empty_link_is_lossless(self):
        assert observed_clr(CONFERENCE.model, CAPACITY, QOS, 0) == 0.0

    def test_unstable_link_reports_one(self):
        # 144 video sources offer ~144 x 500 cells/frame against
        # ~14672: far past stability, CLR saturates at 1.
        assert observed_clr(VIDEO.model, CAPACITY, QOS, 144) == 1.0

    def test_admissible_point_meets_target(self):
        clr = observed_clr(VIDEO.model, CAPACITY, QOS, 27)
        assert 0.0 < clr <= QOS.max_clr

    def test_monotone_in_occupancy(self):
        values = [
            observed_clr(VIDEO.model, CAPACITY, QOS, n)
            for n in (10, 20, 27, 30)
        ]
        assert values == sorted(values)


class TestMatchModel:
    def test_picks_nearest_fingerprint(self):
        m = VIDEO.model
        assert match_model(m.mean, m.std, (CONFERENCE, VIDEO)) is VIDEO
        m = CONFERENCE.model
        assert (
            match_model(m.mean, m.std, (CONFERENCE, VIDEO)) is CONFERENCE
        )

    def test_tie_breaks_to_earlier_candidate(self):
        assert (
            match_model(300.0, 20.0, (CONFERENCE, CONFERENCE)) is CONFERENCE
        )

    def test_empty_candidates_rejected(self):
        with pytest.raises(ParameterError):
            match_model(100.0, 20.0, ())


class TestRebuildTableText:
    def test_declared_keys_estimated_counts(self):
        text = rebuild_table_text(
            (CONFERENCE,), VIDEO.model, CAPACITY, QOS, ("bahadur-rao",)
        )
        tables = DecisionTableCache(persist=False)
        tables.load_text(text)
        # Looked up under the DECLARED model...
        entry = tables.lookup(
            CONFERENCE.model, CAPACITY, QOS, "bahadur-rao"
        )
        # ...but sized from the ESTIMATED (video) statistics: the
        # video boundary, not the conference one.
        baseline = DecisionTableCache(persist=False)
        video_entry = baseline.lookup(
            VIDEO.model, CAPACITY, QOS, "bahadur-rao"
        )
        conference_entry = baseline.lookup(
            CONFERENCE.model, CAPACITY, QOS, "bahadur-rao"
        )
        assert entry.admissible == video_entry.admissible
        assert entry.admissible != conference_entry.admissible
        assert entry.key == decision_key(
            CONFERENCE.model, CAPACITY, QOS, "bahadur-rao"
        )

    def test_inline_engine_matches_direct(self):
        direct = rebuild_table_text(
            (CONFERENCE,), VIDEO.model, CAPACITY, QOS, ("bahadur-rao",)
        )
        engine = RecomputeEngine()
        rebuilt = engine.rebuild(
            (CONFERENCE,), VIDEO.model, CAPACITY, QOS, ("bahadur-rao",)
        )
        assert rebuilt == direct


class TestAdaptiveReplayDemo:
    @pytest.fixture(scope="class")
    def static_run(self):
        return _demo_replay(adapt=False)

    @pytest.fixture(scope="class")
    def adaptive_run(self):
        return _demo_replay(adapt=True)

    def test_static_tables_violate_after_switch(self, static_run):
        link = static_run.links[0]
        assert link.swaps == 0
        assert link.generation == 0
        assert link.post_switch_clr > QOS.max_clr
        assert not static_run.holds_target

    def test_adaptive_holds_target(self, adaptive_run, static_run):
        # post_switch_clr averages over the transient (detection +
        # recompute lag + occupancy drain), so the acceptance metric
        # is the *final* CLR: the last trajectory bucket.
        assert adaptive_run.holds_target
        assert adaptive_run.final_clr <= QOS.max_clr
        assert (
            adaptive_run.links[0].post_switch_clr
            < 0.1 * static_run.links[0].post_switch_clr
        )

    def test_swap_happens_exactly_once(self, adaptive_run):
        link = adaptive_run.links[0]
        assert link.swaps == 1
        assert link.generation == 1
        assert link.first_detection_index >= 3000
        assert link.swap_request_index > link.first_detection_index

    def test_swap_shrinks_boundary(self, adaptive_run):
        link = adaptive_run.links[0]
        assert link.initial_admissible == 144
        assert link.final_admissible == 27

    def test_no_drops_no_boundary_violations(self, static_run,
                                             adaptive_run):
        for summary in (static_run, adaptive_run):
            for link in summary.links:
                assert link.dropped == 0
                assert link.boundary_violations == 0
                assert link.n_requests == DEMO_SPEC.n_requests

    def test_pre_switch_clr_fine_either_way(self, static_run,
                                            adaptive_run):
        assert static_run.links[0].pre_switch_clr <= QOS.max_clr
        assert adaptive_run.links[0].pre_switch_clr <= QOS.max_clr

    def test_summary_json_is_canonical(self, adaptive_run):
        blob = adaptive_run.to_json()
        parsed = json.loads(blob)
        assert parsed["kind"] == "adaptive_replay"
        assert blob == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        ) or blob == json.dumps(parsed, sort_keys=True)


class TestParallelByteIdentity:
    def test_jobs_2_bit_identical(self):
        serial = _demo_replay(adapt=True, n_links=2)
        parallel = _demo_replay(adapt=True, n_links=2, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_links_are_independent_streams(self):
        two = _demo_replay(adapt=True, n_links=2)
        a, b = two.links
        assert a.swap_request_index != b.swap_request_index or (
            a.clr_bucket_means != b.clr_bucket_means
        )


class TestTelemetry:
    @pytest.mark.parametrize("jobs", [None, 2])
    def test_samples_observed_equals_samples_fed(self, jobs):
        from repro import obs

        obs.enable()
        try:
            obs.reset()
            summary = _demo_replay(adapt=True, n_links=2, jobs=jobs)
            counters = {
                m["name"]: m["value"]
                for m in obs.metrics.snapshot()
                if m["type"] == "counter"
            }
        finally:
            obs.reset()
            obs.disable()
        fed = sum(link.n_requests for link in summary.links)
        assert fed == 2 * DEMO_SPEC.n_requests
        assert counters["adaptive.samples_observed"] == fed


class TestSingleLinkReplay:
    def test_stationary_plan_never_swaps(self):
        spec = WorkloadSpec(
            n_requests=1500, arrival_rate=1.0, mean_holding_time=30.0
        )
        stats = adaptive_replay_link(
            spec,
            (CONFERENCE,),
            parse_regime_plan("conference@0"),
            (CONFERENCE, VIDEO),
            capacity=CAPACITY,
            qos=QOS,
            policy="bahadur-rao",
            rng=np.random.default_rng(4),
        )
        assert stats.swaps == 0
        assert stats.generation == 0
        assert stats.drift_detections == 0
        assert stats.pre_switch_clr == stats.post_switch_clr

    def test_dropped_counts_requests_without_a_decision(self, monkeypatch):
        from repro.service.kernel import LinkLane

        step = LinkLane.step

        def skip_request_7(lane, i, force_fallback=False):
            if i != 7:
                return step(lane, i, force_fallback)

        monkeypatch.setattr(LinkLane, "step", skip_request_7)
        stats = adaptive_replay_link(
            WorkloadSpec(
                n_requests=200, arrival_rate=1.0, mean_holding_time=30.0
            ),
            (CONFERENCE,),
            parse_regime_plan("conference@0"),
            (CONFERENCE, VIDEO),
            capacity=CAPACITY,
            qos=QOS,
            policy="bahadur-rao",
            rng=np.random.default_rng(4),
        )
        assert stats.dropped == 1
        assert stats.admitted + stats.blocked == stats.n_requests - 1
