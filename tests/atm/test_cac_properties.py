"""Property tests for the admission-control policy ordering.

The law under test is the paper's qualitative picture: peak-rate
allocation is the conservative extreme, mean-rate the aggressive one,
and the Bahadur-Rao policy sits between them — at *every* operating
point, not just the hand-picked ones of ``test_cac.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm.cac import admissible_connections, PEAK_QUANTILE, PEAK_SIGMA
from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.models import AR1Model, make_s, make_z

# Models are built once: admissible_connections never mutates them
# beyond growing internal ACF caches, and hypothesis re-draws from
# this fixed pool per example.
MODELS = (
    make_z(0.975),
    make_s(1, 0.975),
    make_s(3, 0.975),
    AR1Model(0.8, 500.0, 5000.0),
)

model_strategy = st.sampled_from(MODELS)
delay_strategy = st.sampled_from((0.005, 0.010, 0.020, 0.030))
clr_strategy = st.sampled_from((1e-9, 1e-6, 1e-4))
capacity_strategy = st.sampled_from((20 * 538.0, 30 * 538.0, 50 * 538.0))


class TestPolicyOrdering:
    @given(model_strategy, capacity_strategy, delay_strategy, clr_strategy)
    @settings(max_examples=12, deadline=None)
    def test_peak_rate_below_br_below_mean_rate(
        self, model, capacity, delay, clr
    ):
        qos = QoSRequirement(max_delay_seconds=delay, max_clr=clr)
        peak = admissible_connections(model, capacity, qos, "peak-rate")
        br = admissible_connections(model, capacity, qos, "bahadur-rao")
        mean = admissible_connections(model, capacity, qos, "mean-rate")
        assert 0 <= peak <= br <= mean

    @given(model_strategy, delay_strategy, clr_strategy)
    @settings(max_examples=6, deadline=None)
    def test_admissible_monotone_in_capacity(self, model, delay, clr):
        qos = QoSRequirement(max_delay_seconds=delay, max_clr=clr)
        small = admissible_connections(model, 20 * 538.0, qos)
        large = admissible_connections(model, 50 * 538.0, qos)
        assert large >= small


class TestMethodValidation:
    @given(
        st.text(min_size=1, max_size=20).filter(
            lambda s: s
            not in ("peak-rate", "mean-rate", "bahadur-rao", "large-n")
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_unknown_methods_rejected(self, method):
        qos = QoSRequirement(max_delay_seconds=0.020, max_clr=1e-6)
        with pytest.raises(ParameterError, match="unknown CAC method"):
            admissible_connections(MODELS[1], 30 * 538.0, qos, method)

    def test_peak_sigma_matches_quantile(self):
        # The literal must be SciPy's inversion of the quantile to the
        # last bit: peak-rate boundaries and the effective-bandwidth
        # fallback charge read it, so one ulp could move a decision.
        from scipy import stats

        assert PEAK_SIGMA == float(stats.norm.ppf(PEAK_QUANTILE))
        assert 5.0 < PEAK_SIGMA < 7.0
