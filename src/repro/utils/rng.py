"""Deterministic random-number-generator helpers.

Every stochastic component in the library (dataset generation, weight
initialisation, dropout, attacks that sample, train/test splitting) accepts
either an integer seed or a :class:`numpy.random.Generator`.  Centralising
the conversion in :func:`as_rng` keeps experiments reproducible end to end:
a single integer seed at the experiment level is fanned out into independent
child generators with :func:`spawn_rngs` so that changing the number of draws
in one component does not perturb another component's stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

RandomState = Union[None, int, np.random.Generator]


def as_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for a non-deterministic generator, an ``int`` seed, or an
        existing generator (returned unchanged).
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        if random_state < 0:
            raise ValueError(f"seed must be non-negative, got {random_state}")
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int seed, or a numpy Generator; "
        f"got {type(random_state).__name__}"
    )


def spawn_rngs(random_state: RandomState, count: int) -> list[np.random.Generator]:
    """Split ``random_state`` into ``count`` independent child generators."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = as_rng(random_state)
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


@dataclass
class SeedSequence:
    """Named, reproducible seed fan-out used by experiment drivers.

    An experiment takes a single ``master_seed`` and derives per-component
    seeds by name.  Derivation is order-independent: the child seed only
    depends on ``(master_seed, name)``, so adding a new component never
    changes the seeds of existing components.
    """

    master_seed: int = 0
    _cache: dict[str, int] = field(default_factory=dict, repr=False)

    def seed_for(self, name: str) -> int:
        """Return a deterministic 63-bit seed derived from ``name``."""
        if name not in self._cache:
            # Stable string hash (Python's hash() is salted per process).
            digest = np.uint64(1469598103934665603)  # FNV-1a offset basis
            prime = np.uint64(1099511628211)
            with np.errstate(over="ignore"):
                for byte in f"{self.master_seed}:{name}".encode("utf-8"):
                    digest = np.uint64(digest ^ np.uint64(byte)) * prime
            self._cache[name] = int(digest % np.uint64(2**63 - 1))
        return self._cache[name]

    def rng_for(self, name: str) -> np.random.Generator:
        """Return a generator seeded for ``name``."""
        return np.random.default_rng(self.seed_for(name))

    def rngs_for(self, names: Iterable[str]) -> dict[str, np.random.Generator]:
        """Return one generator per name."""
        return {name: self.rng_for(name) for name in names}
