"""Small shared utilities: seeded RNG helpers and subset enumeration."""

from repro.util.rng import RandomState, derive_rng, spawn_seeds
from repro.util.subsets import bounded_subsets, nonempty_subsets, powerset

__all__ = [
    "RandomState",
    "derive_rng",
    "spawn_seeds",
    "bounded_subsets",
    "nonempty_subsets",
    "powerset",
]
