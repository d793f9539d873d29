"""Exact finite-buffer analysis of Markov-modulated arrivals.

The paper ends Section 5.5 with an open question: the Bahadur-Rao
asymptotic (an *infinite-buffer overflow* estimate) sits about two
orders of magnitude above the *finite-buffer cell loss rate* measured
by simulation.  For Markov-modulated sources the finite-buffer system
is itself a Markov chain, so for small numbers of sources the CLR can
be computed *exactly* — no asymptotics, no sampling noise — and the
gap quantified precisely.

Model: a discrete-time Markov chain with states ``j`` (transition
matrix P) emitting ``a_j`` cells in a frame spent in state ``j``.  The
joint (workload, state) chain evolves as

    ``W' = min(max(W + a_{J'} - C, 0), B)``,   J' ~ P[J, .]

The workload is discretized on a uniform grid; off-grid landings are
split between neighbouring levels in proportion (preserving the mean —
a first-order-accurate discretization whose CLR converges as the grid
refines).  The stationary law is found by power iteration, and

    ``CLR = E[overflow] / E[arrivals]``.

A :class:`MarkovArrivalChain` can be built from any DAR(1) model by
quantile-discretizing its marginal (:meth:`from_dar1`) and small
superpositions are available through the Kronecker product
(:meth:`superpose`) — enough to validate the asymptotics and the
simulator against ground truth for one to three sources.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.exceptions import ConvergenceError, ParameterError, StabilityError
from repro.models.dar import DARModel
from repro.utils.validation import check_integer, check_positive


@dataclass(frozen=True)
class MarkovArrivalChain:
    """A discrete-time Markov-modulated frame-arrival process."""

    transition: np.ndarray
    arrivals: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.transition, dtype=float)
        a = np.asarray(self.arrivals, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ParameterError("transition must be square")
        if a.shape != (p.shape[0],):
            raise ParameterError(
                f"arrivals shape {a.shape} does not match {p.shape[0]} states"
            )
        if np.any(p < -1e-12) or not np.allclose(p.sum(axis=1), 1.0):
            raise ParameterError("transition rows must be distributions")
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "arrivals", a)

    @property
    def n_states(self) -> int:
        return int(self.arrivals.shape[0])

    def stationary_distribution(self) -> np.ndarray:
        """Stationary law of the modulating chain (left eigenvector)."""
        values, vectors = np.linalg.eig(self.transition.T)
        index = int(np.argmin(np.abs(values - 1.0)))
        pi = np.real(vectors[:, index])
        pi = np.abs(pi)
        return pi / pi.sum()

    @property
    def mean_arrival(self) -> float:
        """Stationary mean cells/frame."""
        return float(np.dot(self.stationary_distribution(), self.arrivals))

    @classmethod
    def from_dar1(cls, model: DARModel, n_bins: int = 21) -> "MarkovArrivalChain":
        """Quantile-discretize a DAR(1) model into a finite chain.

        The Gaussian marginal is split into ``n_bins`` equal-probability
        bins represented by their conditional means (so the chain's
        mean matches the model's exactly); DAR(1) dynamics give
        ``P = rho I + (1 - rho) * 1 pi^T`` with uniform pi.
        """
        if model.order != 1:
            raise ParameterError("from_dar1 requires a DAR(1) model")
        n_bins = check_integer(n_bins, "n_bins", minimum=2)
        from scipy import stats

        edges = stats.norm.ppf(np.linspace(0.0, 1.0, n_bins + 1))
        # Conditional means of a standard normal on each bin:
        # E[Z | a < Z < b] = (phi(a) - phi(b)) / (Phi(b) - Phi(a)).
        pdf = stats.norm.pdf(edges)
        bin_prob = 1.0 / n_bins
        z_means = (pdf[:-1] - pdf[1:]) / bin_prob
        values = model.mean + np.sqrt(model.variance) * z_means
        transition = model.rho * np.eye(n_bins) + (
            1.0 - model.rho
        ) * np.full((n_bins, n_bins), bin_prob)
        return cls(transition=transition, arrivals=values)

    def superpose(self, other: "MarkovArrivalChain") -> "MarkovArrivalChain":
        """Product chain of two independent sources (states multiply)."""
        transition = np.kron(self.transition, other.transition)
        arrivals = (
            self.arrivals[:, None] + other.arrivals[None, :]
        ).reshape(-1)
        return MarkovArrivalChain(transition=transition, arrivals=arrivals)

    def self_superpose(self, n_sources: int) -> "MarkovArrivalChain":
        """Superposition of ``n_sources`` i.i.d. copies (state space K^n)."""
        n_sources = check_integer(n_sources, "n_sources", minimum=1)
        chain = self
        for _ in range(n_sources - 1):
            chain = chain.superpose(self)
        return chain


@dataclass(frozen=True)
class ExactCLRResult:
    """Exact stationary loss analysis of the finite-buffer chain."""

    clr: float
    mean_workload: float
    overflow_per_frame: float
    mean_arrival: float
    iterations: int

    @property
    def log10_clr(self) -> float:
        return float(np.log10(self.clr)) if self.clr > 0 else -np.inf


def exact_clr(
    chain: MarkovArrivalChain,
    capacity: float,
    buffer_cells: float,
    *,
    n_levels: int = 401,
    tol: float = 1e-12,
    max_iterations: int = 200_000,
) -> ExactCLRResult:
    """Stationary CLR of the (workload x state) chain by power iteration.

    Parameters
    ----------
    chain:
        The Markov-modulated arrival process (total, all sources).
    capacity:
        Service C in cells/frame; must exceed the chain's mean rate.
    buffer_cells:
        Buffer B in cells; B = 0 (bufferless) is allowed.
    n_levels:
        Workload grid resolution; the discretization error in the CLR
        decreases roughly linearly in the grid spacing.
    """
    check_positive(capacity, "capacity")
    check_positive(buffer_cells, "buffer_cells", strict=False)
    n_levels = check_integer(n_levels, "n_levels", minimum=2)
    if chain.mean_arrival >= capacity:
        raise StabilityError(
            f"mean arrival {chain.mean_arrival:.6g} must be below "
            f"capacity {capacity:.6g}"
        )

    k = chain.n_states
    mean_arrival = chain.mean_arrival

    if buffer_cells == 0.0:
        # Bufferless: the workload is identically zero, so only the
        # stationary state law matters.
        pi_states = chain.stationary_distribution()
        overflow_per_frame = float(
            np.dot(pi_states, np.maximum(chain.arrivals - capacity, 0.0))
        )
        return ExactCLRResult(
            clr=overflow_per_frame / mean_arrival,
            mean_workload=0.0,
            overflow_per_frame=overflow_per_frame,
            mean_arrival=mean_arrival,
            iterations=0,
        )

    levels = np.linspace(0.0, buffer_cells, n_levels)
    spacing = levels[1] - levels[0]

    # Precompute, per target state j', the landing interpolation of
    # every workload level: lower indices and upper-cell weights.
    landing = levels[None, :] + chain.arrivals[:, None] - capacity
    overflow = np.maximum(landing - buffer_cells, 0.0)  # (K, L)
    landing = np.clip(landing, 0.0, buffer_cells)
    position = landing / spacing
    lo = np.floor(position).astype(np.int64)
    np.clip(lo, 0, n_levels - 2, out=lo)
    w_hi = position - lo

    # Power iteration on pi(w, j), stored as an (L, K) matrix.
    pi = np.full((n_levels, k), 1.0 / (n_levels * k))
    transition = chain.transition
    delta = np.inf
    for iteration in range(1, max_iterations + 1):
        mass = pi @ transition  # (L, K): mass arriving to state j'
        new = np.zeros_like(pi)
        for j in range(k):
            column = mass[:, j]
            np.add.at(new[:, j], lo[j], column * (1.0 - w_hi[j]))
            np.add.at(new[:, j], lo[j] + 1, column * w_hi[j])
        delta = float(np.abs(new - pi).sum())
        pi = new
        if delta < tol:
            break
    else:
        raise ConvergenceError(
            f"power iteration did not converge in {max_iterations} steps",
            last_value=delta,
        )

    mass = pi @ transition
    overflow_per_frame = float(np.sum(mass.T * overflow))
    mean_workload = float((pi.sum(axis=1) * levels).sum())
    return ExactCLRResult(
        clr=overflow_per_frame / mean_arrival,
        mean_workload=mean_workload,
        overflow_per_frame=overflow_per_frame,
        mean_arrival=mean_arrival,
        iterations=iteration,
    )
