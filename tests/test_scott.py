"""Scott topology: the definition against the up-sets, and the
maximal-point subspace."""

from hypothesis import given

import orderlab.posets
import orderlab.spaces
from orderlab import bits
from orderlab.fixtures import CHAIN2, DIAMOND, FIXTURE_POSETS, VEE
from orderlab.posets import is_directed, supremum, up_sets, validate_poset
from orderlab.reflections import all_posets
from orderlab.scott import max_point_space, scott_space
from test_properties import SMALL, posets


def definitional_scott_opens(poset):
    """Subsets that are up-closed (checked pair by pair with `leq`) and
    inaccessible by directed suprema: every directed set whose supremum
    lies in the subset meets it.  The directed sets are every nonempty
    subset that `is_directed` accepts; no greatest element is assumed."""
    n = poset.n
    directed = []
    for d in range(1, 1 << n):
        if is_directed(poset, d):
            s = supremum(poset, d)
            assert s is not None  # a finite poset is directed-complete
            directed.append((d, s))
    opens = []
    for u in range(1 << n):
        up_closed = all(u >> b & 1 for a in bits.indices_of(u)
                        for b in range(n) if poset.leq(a, b))
        inaccessible = all(d & u for d, s in directed if u >> s & 1)
        if up_closed and inaccessible:
            opens.append(u)
    return bits.canon(opens)


def test_scott_opens_are_upper_sets():
    for poset in FIXTURE_POSETS.values():
        space = scott_space(poset)
        assert space.opens == up_sets(poset)
        assert space.spec_up == poset.up


def test_scott_opens_exhaustive_small():
    # every order on four points, against the poset-side up-set routine
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


def test_scott_opens_by_definition_on_four_points():
    for poset in all_posets(4):
        assert scott_space(poset).opens == definitional_scott_opens(poset)


@given(posets(max_n=5))
@SMALL
def test_scott_opens_by_definition(poset):
    assert scott_space(poset).opens == definitional_scott_opens(poset)


def test_scott_space_starts_no_enumeration(monkeypatch):
    labels = tuple(f"c{i}" for i in range(40))
    chain = validate_poset(labels, tuple(zip(labels, labels[1:])))

    def refuse(*args):
        raise AssertionError("scott_space started an enumeration")

    monkeypatch.setattr(orderlab.posets, "supremum", refuse)
    monkeypatch.setattr(orderlab.spaces, "_preorder_up_sets", refuse)
    space = scott_space(chain)
    assert space.spec_up == chain.up
    monkeypatch.undo()
    assert len(space.opens) == 41
