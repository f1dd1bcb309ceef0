"""Scott topology: dual-path agreement and the maximal-point subspace."""

from orderlab.fixtures import CHAIN2, DIAMOND, FIXTURE_POSETS, VEE
from orderlab.posets import up_sets
from orderlab.reflections import all_posets
from orderlab.scott import max_point_space, scott_space


def test_scott_opens_are_upper_sets():
    for poset in FIXTURE_POSETS.values():
        space = scott_space(poset)
        assert space.opens == up_sets(poset)
        assert space.spec_up == poset.up


def test_scott_opens_exhaustive_small():
    # the definitional route is re-run inside the constructor; exercising
    # it across every order on four points covers all branch shapes
    for poset in all_posets(4):
        space = scott_space(poset)
        assert space.opens == up_sets(poset)


def test_frozen_scott_opens():
    assert scott_space(CHAIN2).opens == (0, 2, 3)
    assert scott_space(VEE).opens == (0, 2, 4, 6, 7)
    assert scott_space(DIAMOND).opens == (0, 8, 10, 12, 14, 15)


def test_max_point_space_is_discrete():
    for poset in FIXTURE_POSETS.values():
        sub, incl = max_point_space(scott_space(poset))
        assert len(sub.opens) == 1 << sub.n
        # inclusion lands on the maximal elements
        assert incl.target.labels == poset.labels
    sub, _ = max_point_space(scott_space(VEE))
    assert sub.labels == ("b", "c")


def test_corpus_scott_specialization(small_corpus):
    for poset in small_corpus:
        space = scott_space(poset)
        assert space.spec_up == poset.up
