"""Shared corpus fixtures, and a fixture that empties the package's memos.

The seeded corpus is built once per session; every acceptance criterion
that quantifies over random instances draws from the same list, so the
expensive model/hyperspace caches are shared across criteria.
"""

import sys

import pytest

from orderlab.generate import corpus

CORPUS_SEED = 20260816
CORPUS_TRIALS = 500
CORPUS_MAX_SIZE = 7


@pytest.fixture(scope="session")
def seeded_corpus():
    """500 bounded-complete posets with at most 7 elements."""
    return [poset for _i, poset in corpus(CORPUS_SEED, CORPUS_TRIALS, CORPUS_MAX_SIZE)]


@pytest.fixture(scope="session")
def small_corpus(seeded_corpus):
    """A 60-instance slice for the pricier per-instance checks."""
    return seeded_corpus[:60]


def _clear_package_caches() -> None:
    """Empty every lru_cache that a module of orderlab holds, found as
    `Tracer.clear_caches` in bench/tracer.py finds them."""
    for name, module in list(sys.modules.items()):
        if name == "orderlab" or name.startswith("orderlab."):
            for value in vars(module).values():
                for fn in (value, getattr(value, "__wrapped__", None)):
                    if hasattr(fn, "cache_clear"):
                        fn.cache_clear()
                        break


@pytest.fixture
def empty_caches():
    """Every memo of the package empty before and after the test, so a
    test that breaks a route reads no value verified before the break and
    leaves none computed during it."""
    _clear_package_caches()
    yield
    _clear_package_caches()
