"""Gaussian AR(1) frame-size process — the classic SRD reference model.

The paper quotes two critical-time-scale slope results (Section 4.2):
``K = 1/(c - mu)`` for a Gaussian AR(1) process [Courcoubetis &
Weber] versus ``K = H / ((1-H)(c - mu))`` for Gaussian exact-LRD
sources.  The AR(1) model here is the SRD side of that comparison; it
shares its geometric ACF (and therefore V(m) and all buffer behavior
under the Bahadur-Rao machinery) with DAR(1), while having a different
path law — a useful pair for showing that only second-order structure
matters in the analysis.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FRAME_DURATION
from repro.core.variance_time import geometric_variance_time
from repro.models.base import TrafficModel, coerce_lags, stationary_gaussian_check
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_in_range, check_integer


class AR1Model(TrafficModel):
    """Stationary Gaussian AR(1): ``X_n = phi X_{n-1} + eps_n``.

    Parameters
    ----------
    phi:
        Autoregressive coefficient in (-1, 1); equals the lag-1
        autocorrelation.
    mean, variance:
        Stationary marginal parameters (cells/frame).
    """

    def __init__(
        self,
        phi: float,
        mean: float,
        variance: float,
        frame_duration: float = FRAME_DURATION,
    ):
        super().__init__(frame_duration)
        self.phi = check_in_range(phi, "phi", -1.0, 1.0)
        stationary_gaussian_check(mean, variance)
        self._mean = float(mean)
        self._variance = float(variance)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._variance

    def autocorrelation(self, lags) -> np.ndarray:
        lags_int = coerce_lags(lags)
        # Integer exponents keep negative phi exact (float exponents -> NaN).
        return np.power(self.phi, lags_int)

    def variance_time(self, m) -> np.ndarray:
        return geometric_variance_time(self._variance, self.phi, m)

    def sample_frames(self, n_frames: int, rng: RngLike = None) -> np.ndarray:
        n_frames = check_integer(n_frames, "n_frames", minimum=1)
        generator = as_generator(rng)
        noise_std = np.sqrt(self._variance * (1.0 - self.phi**2))
        noise = generator.standard_normal(n_frames) * noise_std
        # Exact stationary start, then the recursion via an IIR filter.
        x0 = generator.standard_normal() * np.sqrt(self._variance)
        from scipy import signal

        path = signal.lfilter(
            [1.0], [1.0, -self.phi], noise, zi=np.array([self.phi * x0])
        )[0]
        return self._mean + path

    def sample_aggregate(
        self, n_frames: int, n_sources: int, rng: RngLike = None
    ) -> np.ndarray:
        """Exact aggregate: sum of N i.i.d. Gaussian AR(1) with common phi
        is AR(1) with variance N sigma^2 (Gaussian closure)."""
        n_frames = check_integer(n_frames, "n_frames", minimum=1)
        n_sources = check_integer(n_sources, "n_sources", minimum=1)
        with self.aggregate_span(n_frames, n_sources):
            scaled = AR1Model(
                self.phi,
                n_sources * self._mean,
                n_sources * self._variance,
                self.frame_duration,
            )
            return scaled.sample_frames(n_frames, rng)

    def describe(self) -> dict:
        info = super().describe()
        info.update(phi=self.phi)
        return info
