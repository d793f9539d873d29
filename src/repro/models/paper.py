"""Factory for the paper's four video models: V^v, Z^a, S, and L.

Implements the parameter specification of Section 5.1 / Table 1.
Every model shares the same Gaussian frame-size marginal (mean 500
cells/frame, variance 5000) and frame rate (25 frames/sec) so that
only the correlation structure differentiates buffer behavior:

* ``Z^a``  — FBNDP(alpha = 0.8, H = 0.9) + DAR(1) with lag-1
  correlation ``a``, equal mean/variance split (v = 1).  Varying
  ``a`` changes *short-term* correlations at fixed long-term ones.
* ``V^v``  — FBNDP(alpha = 0.9) + DAR(1) with variance ratio
  ``v = sigma_X^2/sigma_Y^2`` and the DAR lag-1 correlation solved so
  all V^v share the same first-lag autocorrelation.  Varying ``v``
  changes *long-term* correlation weight at (nearly) fixed short-term
  ones.
* ``S``    — the DAR(p) matched to the first p autocorrelations of a
  given Z^a (the "simple Markov model" of claim 2).
* ``L``    — a pure FBNDP whose ACF tail best fits Z^a's (the "pure
  LRD model" of claim 2); the paper settles on alpha = 0.72.

The derivations keep ``sigma_X^2 / mu_X = 10`` for every FBNDP
component, which pins the fractal onset time T_0 independently of v —
exactly how Table 1 shows one T_0 per model family.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.constants import (
    ALPHA_L,
    ALPHA_V,
    ALPHA_Z,
    A_V_REFERENCE,
    FRAME_DURATION,
    MEAN_FRAME_CELLS,
    M_COMPOSITE,
    M_PURE_LRD,
    VAR_FRAME_CELLS,
)
from repro.exceptions import ParameterError
from repro.models.dar import DARModel
from repro.models.dar_fitting import fit_dar
from repro.models.fbndp import FBNDPModel
from repro.models.superposition import SuperposedModel
from repro.utils.validation import check_in_range, check_integer, check_positive


def make_z(
    a: float,
    *,
    alpha: float = ALPHA_Z,
    mean: float = MEAN_FRAME_CELLS,
    variance: float = VAR_FRAME_CELLS,
    n_onoff: int = M_COMPOSITE,
    frame_duration: float = FRAME_DURATION,
) -> SuperposedModel:
    """The asymptotic-LRD model Z^a (FBNDP + DAR(1), equal split).

    ``a`` is the lag-1 correlation of the DAR(1) component — the knob
    for short-term correlations.  The FBNDP and DAR(1) components
    contribute equally to the mean and variance (v = 1), as in the
    paper's Section 3.3.
    """
    check_in_range(a, "a", 0.0, 1.0, inclusive_low=True)
    fbndp = FBNDPModel.from_statistics(
        mean / 2.0, variance / 2.0, alpha, n_onoff, frame_duration
    )
    dar = DARModel.dar1(a, mean / 2.0, variance / 2.0, frame_duration)
    return SuperposedModel((fbndp, dar))


def reference_lag1(
    *,
    alpha: float = ALPHA_V,
    a_reference: float = A_V_REFERENCE,
    mean: float = MEAN_FRAME_CELLS,
    variance: float = VAR_FRAME_CELLS,
    n_onoff: int = M_COMPOSITE,
    frame_duration: float = FRAME_DURATION,
) -> float:
    """First-lag autocorrelation of the reference model V^1 (a = 0.8)."""
    reference = make_v(
        1.0,
        a=a_reference,
        alpha=alpha,
        mean=mean,
        variance=variance,
        n_onoff=n_onoff,
        frame_duration=frame_duration,
    )
    return float(reference.autocorrelation(1)[0])


def solve_v_lag1(
    v: float,
    *,
    alpha: float = ALPHA_V,
    a_reference: float = A_V_REFERENCE,
    mean: float = MEAN_FRAME_CELLS,
    variance: float = VAR_FRAME_CELLS,
    n_onoff: int = M_COMPOSITE,
    frame_duration: float = FRAME_DURATION,
) -> float:
    """DAR(1) lag-1 correlation making V^v's r(1) equal V^1's.

    From the paper's Eq. (5), ``r(1) = [v r_X(1) + a] / (v + 1)`` and
    r_X(1) is independent of v (T_0 is pinned by the constant
    variance-to-mean ratio), so the match is linear in ``a``.
    """
    check_positive(v, "v")
    target = reference_lag1(
        alpha=alpha,
        a_reference=a_reference,
        mean=mean,
        variance=variance,
        n_onoff=n_onoff,
        frame_duration=frame_duration,
    )
    fbndp = FBNDPModel.from_statistics(
        mean * v / (1.0 + v),
        variance * v / (1.0 + v),
        alpha,
        n_onoff,
        frame_duration,
    )
    r_x1 = float(fbndp.autocorrelation(1)[0])
    a = (1.0 + v) * target - v * r_x1
    if not 0.0 <= a < 1.0:
        raise ParameterError(
            f"no feasible DAR(1) lag-1 correlation for v = {v} "
            f"(solved a = {a:.6g})"
        )
    return a


def make_v(
    v: float,
    *,
    a: Optional[float] = None,
    alpha: float = ALPHA_V,
    mean: float = MEAN_FRAME_CELLS,
    variance: float = VAR_FRAME_CELLS,
    n_onoff: int = M_COMPOSITE,
    frame_duration: float = FRAME_DURATION,
) -> SuperposedModel:
    """The asymptotic-LRD model V^v (FBNDP + DAR(1), variance ratio v).

    ``v = sigma_X^2 / sigma_Y^2`` controls the *weight* of the
    long-term (power-law) correlations.  When ``a`` is omitted, it is
    solved so the first-lag correlation equals the reference V^1's
    (the paper's construction for Fig. 3(a)).
    """
    check_positive(v, "v")
    if a is None:
        a = solve_v_lag1(
            v,
            alpha=alpha,
            mean=mean,
            variance=variance,
            n_onoff=n_onoff,
            frame_duration=frame_duration,
        )
    check_in_range(a, "a", 0.0, 1.0, inclusive_low=True)
    share = v / (1.0 + v)
    fbndp = FBNDPModel.from_statistics(
        mean * share, variance * share, alpha, n_onoff, frame_duration
    )
    dar = DARModel.dar1(
        a, mean * (1.0 - share), variance * (1.0 - share), frame_duration
    )
    return SuperposedModel((fbndp, dar))


def make_l(
    *,
    alpha: float = ALPHA_L,
    mean: float = MEAN_FRAME_CELLS,
    variance: float = VAR_FRAME_CELLS,
    n_onoff: int = M_PURE_LRD,
    frame_duration: float = FRAME_DURATION,
) -> FBNDPModel:
    """The exact-LRD model L: a pure FBNDP with Table 1's alpha = 0.72.

    M = 30 keeps the marginal near-Gaussian despite the absence of the
    DAR component.
    """
    return FBNDPModel.from_statistics(
        mean, variance, alpha, n_onoff, frame_duration
    )


def make_s(order: int, a: float, **z_kwargs) -> DARModel:
    """The Markov model S: DAR(order) matched to Z^a's first correlations."""
    order = check_integer(order, "order", minimum=1)
    return fit_dar(make_z(a, **z_kwargs), order)


def fit_l_alpha(
    target: SuperposedModel,
    *,
    lag_lo: int = 100,
    lag_hi: int = 1000,
    n_lags: int = 40,
    n_onoff: int = M_PURE_LRD,
    bounds: Tuple[float, float] = (0.4, 0.95),
) -> float:
    """Fit L's alpha so its ACF tail matches ``target``'s (Table 1 item 7).

    Minimizes the sum of squared log-ACF differences over log-spaced
    lags in [lag_lo, lag_hi].  The paper reports alpha = 0.72 for
    Z^a; because Eq. (5) halves the power-law weight (the v/(v+1)
    factor), the fitted alpha is *below* the Z component's 0.8.
    """
    lags = np.unique(
        np.round(np.geomspace(lag_lo, lag_hi, n_lags)).astype(int)
    )
    log_target = np.log(target.autocorrelation(lags))
    from scipy import optimize

    def objective(alpha: float) -> float:
        candidate = make_l(
            alpha=alpha,
            mean=target.mean,
            variance=target.variance,
            n_onoff=n_onoff,
            frame_duration=target.frame_duration,
        )
        log_fit = np.log(candidate.autocorrelation(lags))
        return float(np.sum((log_fit - log_target) ** 2))

    result = optimize.minimize_scalar(
        objective, bounds=bounds, method="bounded"
    )
    return float(result.x)


def table1_parameters() -> Dict[str, dict]:
    """Regenerate Table 1: the derived parameters of every model.

    Returns a mapping from model label to its parameter dict, in the
    paper's units (lambda in cells/sec, T_0 in msec).
    """
    rows: Dict[str, dict] = {}
    for v in (0.67, 1.0, 1.5):
        model = make_v(v)
        fbndp = model.components[0]
        dar = model.components[1]
        rows[f"V^{v:g}"] = {
            "v": v,
            "alpha": fbndp.alpha,
            "a": dar.rho,
            "lambda_cells_per_sec": fbndp.arrival_rate,
            "T0_msec": fbndp.onset_time * 1e3,
            "M": fbndp.n_onoff,
        }
    z_model = make_z(0.7)
    z_fbndp = z_model.components[0]
    rows["Z^a"] = {
        "v": 1.0,
        "alpha": z_fbndp.alpha,
        "a": (0.7, 0.9, 0.975, 0.99),
        "lambda_cells_per_sec": z_fbndp.arrival_rate,
        "T0_msec": z_fbndp.onset_time * 1e3,
        "M": z_fbndp.n_onoff,
    }
    l_model = make_l()
    rows["L"] = {
        "alpha": l_model.alpha,
        "lambda_cells_per_sec": l_model.arrival_rate,
        "T0_msec": l_model.onset_time * 1e3,
        "M": l_model.n_onoff,
    }
    for a in (0.7, 0.975):
        for order in (1, 2, 3):
            fitted = make_s(order, a)
            rows[f"S=DAR({order})~Z^{a:g}"] = {
                "rho": fitted.rho,
                "weights": tuple(np.round(fitted.weights, 6)),
            }
    return rows
