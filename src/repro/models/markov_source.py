"""Finite-state Markov-modulated video sources and their theory.

The pre-LRD video-modeling literature the paper defends — Maglaris et
al.'s birth-death mini-source model, the DAR(1) chain of Heyman &
Lakshman / Elwalid et al. — lives in this class: a discrete-time
Markov chain ``J_n`` with transition matrix P emits ``a_j`` cells in a
frame spent in state j.  Everything is computable in closed(-ish)
form:

* stationary law, mean, variance;
* autocorrelation ``r(k)`` from iterated products ``P^k a`` (cached);
* the **effective bandwidth** of Markov-additive arrivals
  (Elwalid-Mitra / Kesidis-Walrand):

      ``e(theta) = Lambda(theta) / theta``,
      ``Lambda(theta) = log sr( P diag(e^{theta a}) )``

  with ``sr`` the spectral radius, and the induced **asymptotic decay
  rate** theta* of the overflow probability at capacity c (the unique
  root of ``e(theta) = c``) — the classical log-linear buffer
  asymptotics whose breakdown under LRD is the starting point of the
  paper's Section 4.

Combined with :mod:`repro.queueing.exact_markov` (exact finite-buffer
CLR for the same chains) this closes the loop: classical theory,
large-deviations asymptotics, exact solution and simulation can all be
compared on one object.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FRAME_DURATION
from repro.exceptions import ConvergenceError, ParameterError, StabilityError
from repro.models.base import TrafficModel, coerce_lags
from repro.models.dar import DARModel
from repro.queueing.exact_markov import MarkovArrivalChain
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_in_range, check_integer, check_positive


class MarkovModulatedSource(TrafficModel):
    """Frame-size process driven by a finite Markov chain."""

    def __init__(
        self,
        chain: MarkovArrivalChain,
        frame_duration: float = FRAME_DURATION,
    ):
        super().__init__(frame_duration)
        self.chain = chain
        self._pi = chain.stationary_distribution()
        self._acf_vectors = [chain.arrivals.copy()]  # P^k a, k = 0, 1, ...

    # -- constructors ---------------------------------------------------------

    @classmethod
    def maglaris(
        cls,
        n_minisources: int,
        p_on_to_off: float,
        p_off_to_on: float,
        cells_per_minisource: float,
        base_cells: float = 0.0,
        frame_duration: float = FRAME_DURATION,
    ) -> "MarkovModulatedSource":
        """The Maglaris birth-death video model (discrete time).

        ``n_minisources`` independent two-state mini-sources each flip
        ON->OFF with probability ``p_on_to_off`` and OFF->ON with
        ``p_off_to_on`` per frame; a frame carries ``base_cells``
        plus ``cells_per_minisource`` per active mini-source.  The
        active count is a birth-death chain whose row transitions are
        the convolution of two binomials.
        """
        m = check_integer(n_minisources, "n_minisources", minimum=1)
        beta = check_in_range(
            p_on_to_off, "p_on_to_off", 0.0, 1.0, inclusive_high=True
        )
        alpha = check_in_range(
            p_off_to_on, "p_off_to_on", 0.0, 1.0, inclusive_high=True
        )
        check_positive(cells_per_minisource, "cells_per_minisource")
        check_positive(base_cells, "base_cells", strict=False)
        from scipy import stats

        transition = np.zeros((m + 1, m + 1))
        for j in range(m + 1):
            stay = stats.binom.pmf(np.arange(j + 1), j, 1.0 - beta)
            join = stats.binom.pmf(np.arange(m - j + 1), m - j, alpha)
            transition[j, : j + (m - j) + 1] = np.convolve(stay, join)
        arrivals = base_cells + cells_per_minisource * np.arange(m + 1)
        return cls(MarkovArrivalChain(transition, arrivals), frame_duration)

    @classmethod
    def from_dar1(
        cls, model: DARModel, n_bins: int = 21
    ) -> "MarkovModulatedSource":
        """Quantized-chain version of a DAR(1) model (see exact_markov)."""
        return cls(
            MarkovArrivalChain.from_dar1(model, n_bins),
            model.frame_duration,
        )

    # -- statistics --------------------------------------------------------------

    @property
    def mean(self) -> float:
        return float(np.dot(self._pi, self.chain.arrivals))

    @property
    def variance(self) -> float:
        second = float(np.dot(self._pi, self.chain.arrivals**2))
        return second - self.mean**2

    def autocorrelation(self, lags) -> np.ndarray:
        lags_int = coerce_lags(lags)
        max_lag = int(lags_int.max()) if lags_int.size else 0
        while len(self._acf_vectors) <= max_lag:
            self._acf_vectors.append(
                self.chain.transition @ self._acf_vectors[-1]
            )
        mu, var = self.mean, self.variance
        if var <= 0:
            raise ParameterError("degenerate chain: zero variance")
        a = self.chain.arrivals
        out = np.empty(lags_int.shape)
        for index, k in enumerate(lags_int.reshape(-1)):
            cross = float(np.dot(self._pi * a, self._acf_vectors[int(k)]))
            out.reshape(-1)[index] = (cross - mu**2) / var
        return out

    # -- effective-bandwidth theory -------------------------------------------------

    def log_mgf_rate(self, theta: float) -> float:
        """Markov-additive scaled cumulant ``Lambda(theta)``.

        ``Lambda(theta) = log sr(P diag(e^{theta a}))``; computed with
        the arrivals centered at their maximum to avoid overflow.
        """
        if theta == 0.0:
            return 0.0
        a = self.chain.arrivals
        shift = float(a.max()) if theta > 0 else float(a.min())
        kernel = self.chain.transition * np.exp(theta * (a - shift))[None, :]
        radius = float(np.max(np.abs(np.linalg.eigvals(kernel))))
        return theta * shift + float(np.log(radius))

    def effective_bandwidth(self, theta: float) -> float:
        """Classical effective bandwidth ``e(theta) = Lambda(theta)/theta``."""
        check_positive(theta, "theta")
        return self.log_mgf_rate(theta) / theta

    def decay_rate_for_capacity(
        self, c: float, *, theta_hi: float = 1.0
    ) -> float:
        """The asymptotic overflow decay rate theta* with ``e(theta*) = c``.

        The buffer-overflow probability of this source into a buffer of
        size B served at c cells/frame decays as ``exp(-theta* B)`` —
        the classical log-linear law (compare the Bahadur-Rao rate
        function's large-b slope).  Requires ``mean < c < max arrival``
        (otherwise overflow is impossible and theta* is infinite).
        """
        if c <= self.mean:
            raise StabilityError(
                f"capacity {c:.6g} must exceed the mean {self.mean:.6g}"
            )
        if c >= float(self.chain.arrivals.max()):
            raise ParameterError(
                "capacity at or above the peak rate: overflow impossible, "
                "theta* is unbounded"
            )

        from scipy import optimize

        def gap(theta: float) -> float:
            return self.effective_bandwidth(theta) - c

        lo = 1e-9
        hi = theta_hi
        for _ in range(200):
            if gap(hi) > 0:
                break
            hi *= 2.0
        else:
            raise ConvergenceError(
                "could not bracket theta*", last_value=hi
            )
        return float(optimize.brentq(gap, lo, hi, xtol=1e-12))

    # -- sampling -------------------------------------------------------------------

    def sample_states(self, n_frames: int, rng: RngLike = None) -> np.ndarray:
        """Sample the modulating state path (stationary start)."""
        n_frames = check_integer(n_frames, "n_frames", minimum=1)
        generator = as_generator(rng)
        cumulative = np.cumsum(self.chain.transition, axis=1)
        uniforms = generator.random(n_frames)
        states = np.empty(n_frames, dtype=np.int64)
        state = int(
            np.searchsorted(np.cumsum(self._pi), generator.random())
        )
        state = min(state, self.chain.n_states - 1)
        for n in range(n_frames):
            state = int(np.searchsorted(cumulative[state], uniforms[n]))
            state = min(state, self.chain.n_states - 1)
            states[n] = state
        return states

    def sample_frames(self, n_frames: int, rng: RngLike = None) -> np.ndarray:
        return self.chain.arrivals[self.sample_states(n_frames, rng)]

    def describe(self) -> dict:
        info = super().describe()
        info.update(n_states=self.chain.n_states)
        return info
