"""Cross-path parity of the shared per-request step.

``replay_link``, a ``drive`` shard and ``adaptive_replay_link`` all
process a request with :meth:`repro.service.kernel.LinkLane.step`, so
on the same seeded stream they must make the same decisions:

* an adaptive replay with a one-regime plan and no adaptation is a
  plain ``replay_link`` — every counter, the table hit/miss totals
  and the carried-load float agree bit for bit;
* a ``drive`` sweep that sheds agrees with per-link ``replay_link``
  runs under the same overload policy (``tests/service/test_drive.py``
  only checks a sweep that never sheds).
"""

import numpy as np

from repro.adaptive.nonstationary import parse_regime_plan
from repro.adaptive.recompute import adaptive_replay_link
from repro.atm.qos import QoSRequirement
from repro.service.cli import build_class
from repro.service.drive import drive
from repro.service.overload import OverloadPolicy
from repro.service.replay import replay_link
from repro.service.workload import WorkloadSpec
from repro.utils.rng import spawn_generators
from repro.utils.units import mbps_to_cells_per_frame

CAPACITY = mbps_to_cells_per_frame(155.52)
QOS = QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)
SEED = 20260806


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

