"""Tests for the rho-driven open-loop frontend driver.

The contract under test: each link's workload is a pure function of
(seed, link index), so the per-rho decision counters are byte-identical
to a serial :func:`replay_link` of the same spec and independent of
the shard count and the worker-pool job count; and the derived
arrival rate offers exactly ``rho x admissible`` Erlangs under every
holding-time law.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.models import make_s
from repro.parallel.backends import warm_pool
from repro.service.drive import (
    DRIVE_QUANTILES,
    derive_arrival_rate,
    drive,
)
from repro.service.overload import OverloadPolicy
from repro.service.replay import replay_link
from repro.service.workload import ConnectionClass, WorkloadSpec
from repro.utils.rng import spawn_generators

CAPACITY = 30 * 538.0
SEED = 20260806


@pytest.fixture
def qos():
    return QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)


@pytest.fixture
def classes():
    return (ConnectionClass("dar1", make_s(1, 0.975)),)


def _point_counters(point):
    return (
        point.n_requests,
        point.admitted,
        point.blocked,
        point.shed,
        point.fallbacks,
        point.boundary_violations,
        point.peak_occupancy,
    )


def _shard_counters(shard):
    return (
        shard.shard_index,
        shard.n_links,
        shard.n_requests,
        shard.admitted,
        shard.blocked,
        shard.shed,
        shard.fallbacks,
        shard.boundary_violations,
        shard.peak_occupancy,
    )


class TestDeriveArrivalRate:
    def test_erlang_identity(self):
        # rho = a / N  <=>  lambda = rho * N / tau, exactly.
        rate = derive_arrival_rate(0.9, 30, 90.0)
        assert rate == pytest.approx(0.9 * 30 / 90.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            derive_arrival_rate(0.0, 30, 90.0)
        with pytest.raises(ParameterError):
            derive_arrival_rate(0.9, 0, 90.0)
        with pytest.raises(ParameterError):
            derive_arrival_rate(0.9, 30, 0.0)


class TestOfferedLoadProperties:
    """Satellite: --rho r with boundary N offers a = r * N Erlangs."""

    @given(
        rho=st.floats(min_value=0.05, max_value=1.5),
        admissible=st.integers(min_value=1, max_value=500),
        tau=st.floats(min_value=0.5, max_value=3600.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_exponential_offered_load(self, rho, admissible, tau):
        rate = derive_arrival_rate(rho, admissible, tau)
        spec = WorkloadSpec(
            n_requests=10,
            arrival_rate=rate,
            mean_holding_time=tau,
            holding="exponential",
        )
        assert spec.offered_erlangs == pytest.approx(
            rho * admissible, rel=1e-12
        )

    @given(
        rho=st.floats(min_value=0.05, max_value=1.5),
        admissible=st.integers(min_value=1, max_value=500),
        tau=st.floats(min_value=0.5, max_value=3600.0),
        gamma=st.floats(min_value=1.05, max_value=1.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_heavy_tailed_offered_load(self, rho, admissible, tau, gamma):
        # Insensitivity at the spec level: the heavy-tailed law changes
        # the realized holding times, never the offered load (which is
        # lambda * tau by definition, mean-matched by construction).
        rate = derive_arrival_rate(rho, admissible, tau)
        spec = WorkloadSpec(
            n_requests=10,
            arrival_rate=rate,
            mean_holding_time=tau,
            holding="heavy-tailed",
            tail_gamma=gamma,
        )
        assert spec.offered_erlangs == pytest.approx(
            rho * admissible, rel=1e-12
        )


class TestDriveSerial:
    def test_counters_match_replay_link(self, classes, qos):
        report = drive(
            classes,
            n_links=2,
            capacity=CAPACITY,
            qos=qos,
            rho_grid=(0.9,),
            requests_per_link=800,
            seed=SEED,
        )
        point = report.points[0]
        spec = WorkloadSpec(
            n_requests=800,
            arrival_rate=point.arrival_rate,
            mean_holding_time=report.mean_holding_time,
        )
        generators = spawn_generators(SEED, 2)
        links = [
            replay_link(
                spec,
                classes,
                capacity=CAPACITY,
                qos=qos,
                policy="bahadur-rao",
                rng=generators[i],
                link_index=i,
            )
            for i in range(2)
        ]
        assert point.n_requests == sum(s.n_requests for s in links)
        assert point.admitted == sum(s.admitted for s in links)
        assert point.blocked == sum(s.blocked for s in links)
        assert point.shed == sum(s.shed for s in links)
        assert point.fallbacks == sum(s.fallbacks for s in links)
        assert point.boundary_violations == 0
        assert point.peak_occupancy == max(s.peak_occupancy for s in links)
        assert report.admissible == links[0].admissible

    def test_counters_independent_of_shard_count(self, classes, qos):
        def sweep(n_shards):
            report = drive(
                classes,
                n_links=4,
                capacity=CAPACITY,
                qos=qos,
                rho_grid=(0.8, 0.99),
                requests_per_link=400,
                n_shards=n_shards,
                seed=SEED,
            )
            return [_point_counters(p) for p in report.points]

        assert sweep(1) == sweep(3)

    def test_report_shape_and_monotone_blocking(self, classes, qos):
        report = drive(
            classes,
            n_links=2,
            capacity=CAPACITY,
            qos=qos,
            rho_grid=(0.6, 0.99),
            requests_per_link=600,
            seed=SEED,
        )
        assert [p.rho for p in report.points] == [0.6, 0.99]
        for point in report.points:
            assert point.offered_erlangs == pytest.approx(
                point.rho * report.admissible
            )
            assert set(point.admit_latency_ns) == {
                f"p{q}" for q in DRIVE_QUANTILES
            }
            assert all(
                v is not None and v > 0
                for v in point.admit_latency_ns.values()
            )
            assert point.decisions_per_second > 0
        # Heavier rho cannot block less on the same boundary.
        assert (
            report.points[1].blocking_probability
            >= report.points[0].blocking_probability
        )
        payload = report.to_dict()
        assert payload["kind"] == "latency_vs_rho"
        assert payload["source"] == "frontend_drive"
        assert len(payload["rows"]) == 2
        assert payload["boundary_violations"] == 0

    def test_rejects_empty_rho_grid(self, classes, qos):
        with pytest.raises(ParameterError):
            drive(
                classes,
                capacity=CAPACITY,
                qos=qos,
                rho_grid=(),
                requests_per_link=10,
            )
        with pytest.raises(ParameterError, match="rho"):
            drive(
                classes,
                capacity=CAPACITY,
                qos=qos,
                rho_grid=(-0.5,),
                requests_per_link=10,
            )


class TestDriveParallel:
    def test_process_pool_matches_serial(self, classes, qos):
        kwargs = dict(
            n_links=3,
            capacity=CAPACITY,
            qos=qos,
            rho_grid=(0.9,),
            requests_per_link=300,
            n_shards=2,
            seed=SEED,
        )
        serial = drive(classes, **kwargs)
        pooled = drive(classes, backend=warm_pool(2), **kwargs)
        assert [_point_counters(p) for p in serial.points] == [
            _point_counters(p) for p in pooled.points
        ]
        # Latency is wall-clock and differs; the quantile keys do not.
        assert set(pooled.points[0].admit_latency_ns) == {
            f"p{q}" for q in DRIVE_QUANTILES
        }

    def test_process_pool_with_unowned_shards(self, classes, qos):
        # Two links on four shards leave at least two shards without
        # links: the pool run must match the serial one shard by
        # shard.
        kwargs = dict(
            n_links=2,
            capacity=CAPACITY,
            qos=qos,
            rho_grid=(0.9, 0.99),
            requests_per_link=300,
            n_shards=4,
            seed=SEED,
        )
        serial = drive(classes, **kwargs)
        pooled = drive(classes, jobs=2, **kwargs)
        assert [_point_counters(p) for p in pooled.points] == [
            _point_counters(p) for p in serial.points
        ]
        for serial_point, pooled_point in zip(serial.points, pooled.points):
            assert [_shard_counters(s) for s in pooled_point.shards] == [
                _shard_counters(s) for s in serial_point.shards
            ]
            unowned = [s for s in pooled_point.shards if s.n_links == 0]
            assert len(unowned) >= 2
            for shard in unowned:
                assert _shard_counters(shard)[1:] == (0,) * 8
                assert shard.elapsed_seconds == 0.0


def _deterministic_telemetry():
    """Canonical JSON of the counters and occupancy sketches."""
    import json

    from repro import obs

    return json.dumps(
        [
            d
            for d in obs.metrics.snapshot()
            if d["type"] == "counter"
            or (
                d["type"] == "sketch"
                and d["name"].startswith("service.occupancy.")
            )
        ],
        sort_keys=True,
    )


class TestDriveTelemetry:
    """The per-link recorders publish the same registry however the
    links are sharded or dispatched, and drive() leaves the caller's
    own telemetry alone."""

    @pytest.fixture
    def telemetry(self):
        from repro import obs

        obs.reset()
        obs.enable()
        yield obs
        obs.disable()
        obs.reset()

    def _sweep(self, classes, qos, **kwargs):
        return drive(
            classes,
            n_links=3,
            capacity=CAPACITY,
            qos=qos,
            rho_grid=(0.8, 0.99),
            requests_per_link=300,
            seed=SEED,
            # Slow enough that the busiest points shed requests.
            overload=OverloadPolicy(max_queue_depth=2, decision_seconds=4.0),
            **kwargs,
        )

    def test_independent_of_jobs_and_shards(self, telemetry, classes, qos):
        runs = {}
        for label, kwargs in (
            ("serial-1-shard", dict(n_shards=1)),
            ("serial-2-shards", dict(n_shards=2)),
            ("jobs2-2-shards", dict(n_shards=2, jobs=2)),
        ):
            telemetry.reset()
            report = self._sweep(classes, qos, **kwargs)
            runs[label] = _deterministic_telemetry()
        assert runs["serial-1-shard"] == runs["serial-2-shards"]
        assert runs["serial-1-shard"] == runs["jobs2-2-shards"]
        assert sum(p.shed for p in report.points) > 0

    def test_table_hits_equal_lookups_made(self, telemetry, classes, qos):
        report = self._sweep(classes, qos, n_shards=2)
        counters = {
            d["name"]: d["value"]
            for d in telemetry.metrics.snapshot()
            if d["type"] == "counter"
        }
        # One snapshot-served lookup per decision that was not shed.
        lookups = sum(p.admitted + p.blocked for p in report.points)
        assert counters["service.table_hits"] == lookups
        assert counters["service.admitted"] == sum(
            p.admitted for p in report.points
        )
        assert counters["service.shed"] == sum(
            p.shed for p in report.points
        )
        sketches = {
            d["name"]: d
            for d in telemetry.metrics.snapshot()
            if d["type"] == "sketch"
        }
        assert sketches["service.admit_latency_ns"]["count"] == lookups
        assert sum(
            sketches[f"service.occupancy.link-{i}"]["count"]
            for i in range(3)
        ) == report.n_requests

    def test_keeps_caller_telemetry(self, telemetry, classes, qos):
        telemetry.metrics.add("caller.counter", 5)
        with telemetry.span("caller.span"):
            pass
        report = self._sweep(classes, qos)
        counters = {
            d["name"]: d["value"]
            for d in telemetry.metrics.snapshot()
            if d["type"] == "counter"
        }
        assert counters["caller.counter"] == 5
        names = [r.name for r in telemetry.records()]
        assert "caller.span" in names
        # Every point's spans survive, not just the last point's.
        assert names.count("service.frontend.drive") == len(report.points)
        for point in report.points:
            assert all(
                v is not None and v > 0
                for v in point.admit_latency_ns.values()
            )


class TestDriveRegimePlan:
    """Nonstationary load threading through the open-loop driver."""

    def test_none_plan_is_the_stationary_path(self, classes, qos):
        base = drive(
            classes, capacity=CAPACITY, qos=qos, rho_grid=(0.8,),
            n_links=2, requests_per_link=400, seed=7,
        )
        explicit = drive(
            classes, capacity=CAPACITY, qos=qos, rho_grid=(0.8,),
            n_links=2, requests_per_link=400, seed=7,
            regime_plan=None,
        )
        assert _point_counters(base.points[0]) == _point_counters(
            explicit.points[0]
        )

    def test_rate_ramp_increases_blocking(self, classes, qos):
        from repro.adaptive.nonstationary import parse_regime_plan

        plan = parse_regime_plan("dar1@0,dar1@200x4.0")
        base = drive(
            classes, capacity=CAPACITY, qos=qos, rho_grid=(0.95,),
            n_links=2, requests_per_link=400, seed=7,
        )
        ramped = drive(
            classes, capacity=CAPACITY, qos=qos, rho_grid=(0.95,),
            n_links=2, requests_per_link=400, seed=7,
            regime_plan=plan, regime_classes=classes,
        )
        assert ramped.points[0].blocked > base.points[0].blocked
        assert ramped.boundary_violations == 0

    def test_plan_deterministic_across_runs(self, classes, qos):
        from repro.adaptive.nonstationary import parse_regime_plan

        plan = parse_regime_plan("dar1@0,dar1@100x2.0")
        runs = [
            drive(
                classes, capacity=CAPACITY, qos=qos, rho_grid=(0.9,),
                n_links=2, requests_per_link=300, seed=11,
                regime_plan=plan, regime_classes=classes,
            )
            for _ in range(2)
        ]
        assert _point_counters(runs[0].points[0]) == _point_counters(
            runs[1].points[0]
        )
