"""Fractional ARIMA(0, d, 0) — the paper's *asymptotic* LRD example.

Section 2 distinguishes asymptotic LRD (``r(k) ~ k^{-(2-2H)}`` only as
k -> infinity, Eq. (1)) from exact LRD (Eq. (2)); F-ARIMA(p, d, q) is
the cited example of the former.  The pure fractionally-differenced
process F-ARIMA(0, d, 0), ``(1 - B)^d X = eps``, has the closed-form
ACF

    ``r(k) = prod_{j=1}^{k} (j - 1 + d) / (j - d)``
          ``= Gamma(k + d) Gamma(1 - d) / (Gamma(k - d + 1) Gamma(d))``

with 0 < d < 1/2 and Hurst parameter ``H = d + 1/2``.  The product
form is evaluated in log space for numerical stability at large lags.

Sampling is exact via circulant embedding.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FRAME_DURATION
from repro.models.base import TrafficModel, coerce_lags, stationary_gaussian_check
from repro.models.gaussian import sample_stationary_gaussian
from repro.utils.rng import RngLike
from repro.utils.validation import check_in_range, check_integer


class FARIMAModel(TrafficModel):
    """F-ARIMA(0, d, 0) frame-size process with Gaussian marginal.

    Parameters
    ----------
    d:
        Fractional-differencing parameter in (0, 0.5); H = d + 0.5.
    mean, variance:
        Gaussian marginal parameters (cells/frame).
    """

    def __init__(
        self,
        d: float,
        mean: float,
        variance: float,
        frame_duration: float = FRAME_DURATION,
    ):
        super().__init__(frame_duration)
        self.d = check_in_range(d, "d", 0.0, 0.5)
        stationary_gaussian_check(mean, variance)
        self._mean = float(mean)
        self._variance = float(variance)

    @classmethod
    def from_hurst(
        cls,
        hurst: float,
        mean: float,
        variance: float,
        frame_duration: float = FRAME_DURATION,
    ) -> "FARIMAModel":
        """Construct from a target Hurst parameter in (0.5, 1)."""
        check_in_range(hurst, "hurst", 0.5, 1.0)
        return cls(hurst - 0.5, mean, variance, frame_duration)

    @property
    def hurst(self) -> float:
        return self.d + 0.5

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._variance

    def autocorrelation(self, lags) -> np.ndarray:
        """``r(k) = Gamma(k+d) Gamma(1-d) / (Gamma(k-d+1) Gamma(d))``.

        Evaluated with log-gamma to stay finite at large k, where
        ``r(k) ~ Gamma(1-d)/Gamma(d) * k^{2d-1}`` — the asymptotic
        power law of Eq. (1) with exponent 2H - 2.
        """
        lags_int = coerce_lags(lags)
        d = self.d
        k = lags_int.astype(float)
        from scipy import special

        log_r = (
            special.gammaln(k + d)
            + special.gammaln(1.0 - d)
            - special.gammaln(k - d + 1.0)
            - special.gammaln(d)
        )
        out = np.exp(log_r)
        out[lags_int == 0] = 1.0
        return out

    def sample_frames(self, n_frames: int, rng: RngLike = None) -> np.ndarray:
        n_frames = check_integer(n_frames, "n_frames", minimum=1)
        acf = np.concatenate(([1.0], self.acf(n_frames - 1)))
        path = sample_stationary_gaussian(acf, n_frames, rng)
        return self._mean + np.sqrt(self._variance) * path

    def sample_aggregate(
        self, n_frames: int, n_sources: int, rng: RngLike = None
    ) -> np.ndarray:
        """Exact aggregate via Gaussian closure (same ACF, scaled variance)."""
        n_sources = check_integer(n_sources, "n_sources", minimum=1)
        n_frames = check_integer(n_frames, "n_frames", minimum=1)
        with self.aggregate_span(n_frames, n_sources):
            acf = np.concatenate(([1.0], self.acf(n_frames - 1)))
            path = sample_stationary_gaussian(acf, n_frames, rng)
            return n_sources * self._mean + np.sqrt(
                n_sources * self._variance
            ) * path

    def describe(self) -> dict:
        info = super().describe()
        info.update(d=self.d)
        return info
