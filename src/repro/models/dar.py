"""Discrete AutoRegressive process of order p — DAR(p), Jacobs & Lewis.

The paper's short-range-dependent video model (Section 3.1).  The
process is

    ``S_n = V_n * S_{n - A_n} + (1 - V_n) * eps_n``

with ``V_n ~ Bernoulli(rho)``, ``A_n`` taking value ``i`` with
probability ``a_i`` (i = 1..p), and ``eps_n`` i.i.d. with the marginal
distribution ``pi``.  Whatever ``pi`` is, the stationary marginal of
``S`` equals ``pi`` — which is precisely why the paper can give every
model the *same* Gaussian marginal and isolate the effect of the
correlation structure.

The autocorrelation function satisfies the Yule-Walker-type recursion

    ``r(k) = rho * sum_i a_i * r(|k - i|)``,  k >= 1,

so a DAR(p) has p degrees of freedom and can match the first p
autocorrelations of any target process (see
:mod:`repro.models.dar_fitting`).

Sampling:

* DAR(1) has a dedicated fast path: the sample path is a sequence of
  constant *runs* whose lengths are i.i.d. Geometric(1 - rho) and
  whose values are i.i.d. marginal draws, so a path costs
  O(n / E[run]) numpy work instead of an n-step loop.
* General DAR(p) makes the defining recursion's generator calls in
  their order (per frame across sources for aggregates, in bulk for
  one path), then resolves ``x[n] = x[n - A_n] if V_n else eps_n`` a
  block at a time without arithmetic: each slot points at the slot it
  copies, chains collapse by pointer doubling, and one gather fetches
  every value (see :func:`_resolve_lags`).  The output is
  byte-identical to stepping the recursion, and aggregate memory does
  not grow with the horizon.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.constants import FRAME_DURATION
from repro.core.variance_time import geometric_variance_time
from repro.exceptions import ParameterError
from repro.models.base import TrafficModel, coerce_lags, stationary_gaussian_check
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_in_range, check_integer

#: Element budget (frames x sources) of one block of
#: :meth:`DARModel.sample_aggregate`: its working arrays stay near
#: 1.5 MB whatever the horizon.
_BLOCK_ELEMENT_BUDGET = 1 << 14


class DARModel(TrafficModel):
    """DAR(p) frame-size process with a Gaussian marginal.

    Parameters
    ----------
    rho:
        Repeat probability in [0, 1).  For p = 1 this *is* the lag-1
        autocorrelation.
    weights:
        Lag-selection probabilities (a_1, ..., a_p); non-negative,
        summing to 1.  Pass ``(1.0,)`` for DAR(1).
    mean, variance:
        Gaussian marginal parameters (cells/frame).
    """

    def __init__(
        self,
        rho: float,
        weights: Sequence[float],
        mean: float,
        variance: float,
        frame_duration: float = FRAME_DURATION,
        *,
        marginal: "Marginal" = None,
    ):
        super().__init__(frame_duration)
        self.rho = check_in_range(
            rho, "rho", 0.0, 1.0, inclusive_low=True, inclusive_high=False
        )
        weights_arr = np.asarray(weights, dtype=float)
        if weights_arr.ndim != 1 or weights_arr.size == 0:
            raise ParameterError("weights must be a non-empty 1-D sequence")
        if np.any(weights_arr < 0):
            raise ParameterError(f"weights must be non-negative, got {weights!r}")
        total = weights_arr.sum()
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ParameterError(f"weights must sum to 1, got sum={total!r}")
        self.weights = weights_arr / total
        if marginal is None:
            from repro.models.marginals import GaussianMarginal

            stationary_gaussian_check(mean, variance)
            marginal = GaussianMarginal(mean, variance)
        elif not (
            np.isclose(marginal.mean, mean)
            and np.isclose(marginal.variance, variance)
        ):
            raise ParameterError(
                "marginal moments disagree with (mean, variance): "
                f"{marginal!r} vs ({mean!r}, {variance!r})"
            )
        self.marginal = marginal
        self._acf_cache = np.ones(1)

    @classmethod
    def dar1(
        cls,
        lag1: float,
        mean: float,
        variance: float,
        frame_duration: float = FRAME_DURATION,
    ) -> "DARModel":
        """Convenience constructor for DAR(1) with lag-1 correlation ``lag1``."""
        return cls(lag1, (1.0,), mean, variance, frame_duration)

    @classmethod
    def with_marginal(
        cls,
        rho: float,
        weights: Sequence[float],
        marginal: "Marginal",
        frame_duration: float = FRAME_DURATION,
    ) -> "DARModel":
        """DAR(p) with an explicit (possibly non-Gaussian) marginal.

        The DAR construction preserves any innovation law as the
        stationary marginal — the hook behind the paper's Section 6.1
        discussion of heavier-tailed frame sizes.
        """
        return cls(
            rho,
            weights,
            marginal.mean,
            marginal.variance,
            frame_duration,
            marginal=marginal,
        )

    @property
    def order(self) -> int:
        """The order p of the process."""
        return int(self.weights.shape[0])

    # -- statistics ---------------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.marginal.mean

    @property
    def variance(self) -> float:
        return self.marginal.variance

    def autocorrelation(self, lags) -> np.ndarray:
        lags_int = coerce_lags(lags)
        max_lag = int(lags_int.max()) if lags_int.size else 0
        self._extend_acf_cache(max_lag)
        return self._acf_cache[lags_int]

    def _extend_acf_cache(self, max_lag: int) -> None:
        """Grow the memoized ACF table.

        The Yule-Walker relations ``r(k) = rho sum_i a_i r(|k-i|)`` are
        *simultaneous* for k = 1..p (r(1) appears on both sides when
        p >= 2), so the first p lags come from a linear solve; beyond p
        every |k - i| < k and the plain recursion applies.
        """
        have = self._acf_cache.shape[0]
        if max_lag < have:
            return
        p = self.order
        table = np.empty(max(max_lag, p) + 1)
        table[0] = 1.0
        if p == 1:
            table[1:] = self.rho ** np.arange(1, table.shape[0])
            self._acf_cache = table[: max_lag + 1]
            return
        # Solve for r(1..p):  r(k) - rho * sum_{j>=1} c_{kj} r(j) = rho a_k
        # where c_{kj} = sum of a_i over i with |k - i| = j.
        matrix = np.eye(p)
        rhs = self.rho * self.weights.copy()
        for k in range(1, p + 1):
            for i in range(1, p + 1):
                j = abs(k - i)
                if j > 0:
                    matrix[k - 1, j - 1] -= self.rho * self.weights[i - 1]
        table[1 : p + 1] = np.linalg.solve(matrix, rhs)
        for k in range(p + 1, table.shape[0]):
            idx = k - np.arange(1, p + 1)
            table[k] = self.rho * float(np.dot(self.weights, table[idx]))
        self._acf_cache = table[: max_lag + 1]

    def variance_time(self, m) -> np.ndarray:
        if self.order == 1:
            return geometric_variance_time(self.variance, self.rho, m)
        return super().variance_time(m)

    # -- sampling -------------------------------------------------------------------

    def sample_frames(self, n_frames: int, rng: RngLike = None) -> np.ndarray:
        n_frames = check_integer(n_frames, "n_frames", minimum=1)
        generator = as_generator(rng)
        if self.order == 1:
            return _dar1_run_length_path(
                self.rho, self.marginal, n_frames, generator
            )
        return self._sample_recursion(n_frames, generator)

    def _sample_recursion(
        self, n_frames: int, generator: np.random.Generator
    ) -> np.ndarray:
        """DAR(p) path via the defining recursion.

        The chain is warmed up for ``64 / (1 - rho)`` steps from an
        i.i.d. marginal start so the returned segment is (numerically)
        stationary in its joint law, not just its marginal.
        """
        p = self.order
        warmup = self._warmup()
        total = n_frames + warmup
        repeat = generator.random(total) < self.rho
        lag_choice = generator.choice(
            np.arange(1, p + 1), size=total, p=self.weights
        )
        fresh = self.marginal.sample(total, generator)
        initial = self.marginal.sample(p, generator)
        path = np.concatenate((initial, fresh))[:, None]
        path = _resolve_lags(path, repeat[:, None], lag_choice[:, None])
        return path[p + warmup :, 0]

    def sample_aggregate(
        self, n_frames: int, n_sources: int, rng: RngLike = None
    ) -> np.ndarray:
        """Sum of N independent chains, vectorized across sources.

        DAR is *not* closed under superposition, so all N chains are
        simulated.  Each frame makes the generator calls of one
        recursion step across all N sources, in the step's order: the
        repeat flags, the uniforms ``Generator.choice`` would draw for
        the lags, then the innovations.  Every block of frames is then
        resolved by :func:`_resolve_lags` and its rows summed into the
        result, so the output matches the frame-by-frame recursion
        bit for bit.
        """
        n_frames = check_integer(n_frames, "n_frames", minimum=1)
        n_sources = check_integer(n_sources, "n_sources", minimum=1)
        with self.aggregate_span(n_frames, n_sources):
            generator = as_generator(rng)
            if self.order == 1:
                total = np.zeros(n_frames)
                for _ in range(n_sources):
                    total += _dar1_run_length_path(
                        self.rho, self.marginal, n_frames, generator
                    )
                return total
            p = self.order
            warmup = self._warmup()
            total_steps = n_frames + warmup
            block = min(max(1, _BLOCK_ELEMENT_BUDGET // n_sources), total_steps)
            # What Generator.choice(lags, p=weights) does with its uniforms.
            lags = np.arange(1, p + 1)
            cdf = self.weights.cumsum()
            cdf /= cdf[-1]
            # Rows 0..p-1 carry the last p states (row p - k is lag k);
            # row p + i takes the innovation of the block's frame i.
            values = np.empty((p + block, n_sources))
            values[:p] = self.marginal.sample(
                p * n_sources, generator
            ).reshape(p, n_sources)
            uniforms = np.empty((block, 2, n_sources))
            out = np.empty(n_frames)
            for start in range(0, total_steps, block):
                steps = min(block, total_steps - start)
                for draws, row in zip(uniforms[:steps], values[p:]):
                    generator.random(out=draws)
                    row[:] = self.marginal.sample(n_sources, generator)
                repeat = uniforms[:steps, 0] < self.rho
                lag = lags[cdf.searchsorted(uniforms[:steps, 1], side="right")]
                resolved = _resolve_lags(values[: p + steps], repeat, lag)
                first = max(start, warmup)
                stop = start + steps
                if first < stop:
                    out[first - warmup : stop - warmup] = resolved[
                        p + first - start :
                    ].sum(axis=1)
                values[:p] = resolved[steps:]
            return out

    def _warmup(self) -> int:
        """Recursion steps discarded before the returned frames."""
        return min(int(64.0 / max(1.0 - self.rho, 1e-6)) + self.order, 100_000)

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            rho=self.rho,
            weights=tuple(self.weights),
            order=self.order,
            marginal=repr(self.marginal),
        )
        return info


def _resolve_lags(
    values: np.ndarray, repeat: np.ndarray, lag: np.ndarray
) -> np.ndarray:
    """Resolve ``x[n] = x[n - lag[n]] if repeat[n] else x[n]`` by gathers.

    ``values`` has p carried rows, already resolved, then one row of
    innovations per step; ``repeat`` and ``lag`` have one row per step
    and a column per source.  Every slot points at the slot it copies
    (innovations and carried rows at themselves), and ``src = src[src]``
    until no pointer moves collapses each chain to its root, at most
    ``ceil(log2(steps)) + 1`` passes.  One gather then fetches every
    value, so no arithmetic touches them.  Returns the resolved
    ``values.shape`` array.
    """
    p = values.shape[0] - repeat.shape[0]
    slots = np.arange(values.size).reshape(values.shape)
    src = slots.copy()
    src[p:] = np.where(repeat, slots[p:] - lag * values.shape[1], slots[p:])
    src = src.ravel()
    while True:
        hop = src[src]
        if np.array_equal(hop, src):
            break
        src = hop
    return values.ravel()[src].reshape(values.shape)


def _dar1_run_length_path(
    rho: float,
    marginal,
    n_frames: int,
    generator: np.random.Generator,
) -> np.ndarray:
    """DAR(1) path via run-length sampling.

    A DAR(1) path is constant over runs whose lengths are i.i.d.
    Geometric(1 - rho) (support {1, 2, ...}) and whose values are
    i.i.d. marginal draws; successive run values are independent.
    Works for any marginal — the construction never mixes values.
    """
    if rho == 0.0:
        return marginal.sample(n_frames, generator)
    mean_run = 1.0 / (1.0 - rho)
    lengths_chunks = []
    covered = 0
    while covered < n_frames:
        need = int((n_frames - covered) / mean_run) + 16
        chunk = generator.geometric(1.0 - rho, size=need)
        lengths_chunks.append(chunk)
        covered += int(chunk.sum())
    lengths = np.concatenate(lengths_chunks)
    ends = np.cumsum(lengths)
    n_runs = int(np.searchsorted(ends, n_frames)) + 1
    lengths = lengths[:n_runs]
    lengths[-1] -= int(ends[n_runs - 1]) - n_frames
    values = marginal.sample(n_runs, generator)
    return np.repeat(values, lengths)
