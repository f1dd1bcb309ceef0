"""Seeded random bounded-complete posets.

Instances come from random DAGs passed through transitive closure, with
a fresh bottom always adjoined (bounded completeness requires one, and
it raises the acceptance rate of the rejection filter considerably).
Only bounded-complete results are emitted; everything is deterministic
in the seed, and per-trial seeds come from one fixed splitting rule so
trial i of a run never depends on how trials 0..i-1 went.
"""

from __future__ import annotations

import random

from . import bits
from .errors import GenerationBudgetExceeded, PreconditionViolated
from .posets import FinPoset, is_bounded_complete, validate_poset

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, i: int) -> int:
    """Per-trial seed: one LCG-style mixing step, stable across runs."""
    return (seed * _MULT + i * _INC) & _MASK64


def generate_poset(seed: int, max_size: int, budget: int = 500) -> FinPoset:
    """One random bounded-complete poset with at most max_size elements."""
    if max_size < 1:
        raise PreconditionViolated("max_size must be at least 1")
    rng = random.Random(seed)
    if max_size == 1:
        return validate_poset(("bot",), ())
    for _ in range(budget):
        n = rng.randint(1, max_size - 1)
        # refuse an oversized draw before its n^2/2 pair draws; the
        # carrier check of `validate_poset` raises the same error after them
        bits.check_carrier(n + 1)
        labels = tuple(f"x{i}" for i in range(n))
        density = rng.uniform(0.15, 0.6)
        pairs = [
            (labels[i], labels[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        pairs.extend(("bot", lbl) for lbl in labels)
        poset = validate_poset(("bot",) + labels, tuple(pairs))
        verdict, _witness = is_bounded_complete(poset)
        if verdict:
            return poset
    raise GenerationBudgetExceeded(budget)


def corpus(seed: int, trials: int, max_size: int, budget: int = 500):
    """The seeded corpus as (trial index, poset) pairs, in trial order."""
    for i in range(trials):
        yield i, generate_poset(derive_seed(seed, i), max_size, budget)
