"""Connection admission control (CAC) for homogeneous VBR video.

The motivating application of the paper: "the DAR(1) model provides
accurate prediction of the number of admissible connections for LRD
traces".  This module compares admission policies on the same link:

* ``peak-rate``   — allocate a high marginal quantile per source
  (nearly lossless, very conservative);
* ``mean-rate``   — allocate the mean (ignores burstiness entirely);
* ``bahadur-rao`` — invert the B-R BOP estimate (the paper's
  machinery, correlation-aware through V(m));
* ``large-n``     — invert the Courcoubetis-Weber estimate.

All return a maximum admissible connection count for a link capacity
and a :class:`~repro.atm.qos.QoSRequirement`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.core.large_n import large_n_bop
from repro.core.operating_point import max_admissible_sources
from repro.core.rate_function import VarianceTimeTable
from repro.atm.qos import QoSRequirement
from repro.exceptions import ParameterError
from repro.models.base import TrafficModel
from repro.utils.validation import check_positive

#: Marginal quantile used as the "peak" of a Gaussian source.  ATM peak
#: cell rate is a hard bound; for an unbounded Gaussian marginal we use
#: the 1 - 1e-9 quantile, beyond which emission is negligible.
PEAK_QUANTILE = 1.0 - 1e-9

#: The z-score of :data:`PEAK_QUANTILE`, ``scipy.stats.norm.ppf`` of it
#: written out bit-exact: the online admission service calls the
#: peak-rate policy per request, and neither the Gaussian CDF inversion
#: nor the SciPy import it needs may sit on that path or at start-up.
#: ``statistics.NormalDist().inv_cdf`` lands one ulp higher.
PEAK_SIGMA = 5.997807019601637


def peak_rate_sources(model: TrafficModel, link_capacity: float) -> int:
    """Admissible N under peak-rate allocation."""
    check_positive(link_capacity, "link_capacity")
    peak = model.mean + model.std * PEAK_SIGMA
    return int(math.floor(link_capacity / peak))


def mean_rate_sources(model: TrafficModel, link_capacity: float) -> int:
    """Admissible N under mean-rate allocation (stability bound).

    The count is capped one source short of saturation so the
    admitted system remains strictly stable.
    """
    check_positive(link_capacity, "link_capacity")
    n = int(math.floor(link_capacity / model.mean))
    if n > 0 and link_capacity / n <= model.mean:
        n -= 1
    return n


def admissible_connections(
    model: TrafficModel,
    link_capacity: float,
    qos: QoSRequirement,
    method: str = "bahadur-rao",
) -> int:
    """Maximum admissible N for the chosen policy.

    ``link_capacity`` in cells/frame.  The buffer follows the QoS delay
    budget: B = max_delay * C / T_s.
    """
    if method == "peak-rate":
        return peak_rate_sources(model, link_capacity)
    if method == "mean-rate":
        return mean_rate_sources(model, link_capacity)
    if method == "bahadur-rao":
        return max_admissible_sources(
            model, link_capacity, qos.max_delay_seconds, qos.max_clr
        )
    if method == "large-n":
        return _max_sources_large_n(model, link_capacity, qos)
    raise ParameterError(
        f"unknown CAC method {method!r}; choose peak-rate, mean-rate, "
        "bahadur-rao or large-n"
    )


def _max_sources_large_n(
    model: TrafficModel, link_capacity: float, qos: QoSRequirement
) -> int:
    """Binary search on N with the large-N (no-prefactor) estimate."""
    mu = model.mean
    n_max = mean_rate_sources(model, link_capacity)
    if n_max == 0:
        return 0
    total_buffer = qos.buffer_cells(link_capacity, model.frame_duration)
    target_log = math.log10(qos.max_clr)
    table = VarianceTimeTable(model)

    def admissible(n: int) -> bool:
        estimate = large_n_bop(
            model, link_capacity / n, total_buffer / n, n, table=table
        )
        return estimate.log10_bop <= target_log

    if not admissible(1):
        return 0
    if admissible(n_max):
        return n_max
    lo, hi = 1, n_max
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def compare_policies(
    model: TrafficModel, link_capacity: float, qos: QoSRequirement
) -> Dict[str, int]:
    """Admissible connection counts under every policy, for reports."""
    return {
        method: admissible_connections(model, link_capacity, qos, method)
        for method in ("peak-rate", "mean-rate", "bahadur-rao", "large-n")
    }
