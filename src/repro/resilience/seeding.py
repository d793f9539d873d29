"""Per-replication, per-attempt RNG stream bookkeeping.

The retry discipline of the resilience engine only makes statistical
sense if every attempt runs on its own independent stream: re-running
a failed replication on the *same* stream would reproduce the same
sample path (and the same NaN), while drawing "somewhere else" ad hoc
would break reproducibility.  :class:`ReplicationSeeder` solves both
with the ``SeedSequence`` spawn tree:

* attempt 0 of replication ``i`` uses exactly the stream that
  :func:`repro.utils.rng.spawn_generators` hands a fail-fast
  (non-resilient) run — so a fault-free supervised run is
  bit-identical to an unsupervised one;
* retry ``k`` of replication ``i`` spawns the child with spawn key
  ``(i, k - 1)`` from replication ``i``'s own SeedSequence — fully
  determined by ``(i, k)`` and the root entropy, independent of what
  happened to any other replication.

When the caller passes an existing :class:`numpy.random.Generator`
(shared-state semantics, no seed identity), retries spawn children
from that replication's generator via
:func:`~repro.utils.rng.spawn_generators` — which on numpy < 1.25
falls back to seeding from the parent's bit stream.  In that mode
:attr:`entropy` and spawn keys are ``None`` and checkpoints cannot
verify seed identity.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, spawn_generators
from repro.utils.validation import check_integer

__all__ = ["ReplicationSeeder"]


class ReplicationSeeder:
    """Deterministic RNG streams keyed by (replication index, attempt)."""

    def __init__(self, rng: RngLike, n_replications: int):
        self.n_replications = check_integer(
            n_replications, "n_replications", minimum=1
        )
        self._attempts = [0] * self.n_replications
        if isinstance(rng, np.random.Generator):
            self._sequences: Optional[List[np.random.SeedSequence]] = None
            self._generators = spawn_generators(rng, self.n_replications)
            self.entropy: Optional[int] = None
        else:
            root = (
                rng
                if isinstance(rng, np.random.SeedSequence)
                else np.random.SeedSequence(rng)
            )
            self._sequences = root.spawn(self.n_replications)
            self._generators = None
            self.entropy = root.entropy

    @property
    def seedable(self) -> bool:
        """Whether streams are reconstructible from recorded seeds."""
        return self._sequences is not None

    def attempts(self, index: int) -> int:
        """Number of streams handed out so far for replication ``index``."""
        return self._attempts[index]

    def generator(self, index: int) -> np.random.Generator:
        """The next stream for replication ``index``.

        The first call returns the replication's attempt-0 stream; each
        subsequent call (a retry) returns a freshly spawned child.
        """
        index = check_integer(
            index, "index", minimum=0, maximum=self.n_replications - 1
        )
        attempt = self._attempts[index]
        self._attempts[index] = attempt + 1
        if self._sequences is None:
            parent = self._generators[index]
            if attempt == 0:
                return parent
            return spawn_generators(parent, 1)[0]
        sequence = self._sequences[index]
        if attempt == 0:
            return np.random.default_rng(sequence)
        # SeedSequence.spawn tracks its own child counter, so the k-th
        # retry gets spawn key (index, k-1) regardless of interleaving.
        return np.random.default_rng(sequence.spawn(1)[0])

    def adopt_generator(
        self, index: int, generator: np.random.Generator
    ) -> None:
        """Replace replication ``index``'s parent stream (Generator mode).

        A worker process runs the attempt on a *pickled copy* of the
        parent stream, so the supervisor's copy never advances.  In
        Generator mode retries derive from the post-attempt state of
        the failed stream; adopting the worker's returned generator
        restores exactly the state an in-process (serial) attempt
        would have left behind.  No-op in seeded mode, where retries
        derive from the replication's SeedSequence instead.
        """
        if self._generators is not None:
            index = check_integer(
                index, "index", minimum=0, maximum=self.n_replications - 1
            )
            self._generators[index] = generator

    def spawn_key(self, index: int) -> Optional[Tuple[int, ...]]:
        """Spawn key of replication ``index``'s SeedSequence, if seeded."""
        if self._sequences is None:
            return None
        return tuple(int(k) for k in self._sequences[index].spawn_key)
