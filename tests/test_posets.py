"""Poset validation, order algebra, and the bounded-completeness oracle."""

import pytest

from orderlab import bits
from orderlab.errors import (
    AntisymmetryViolation,
    BudgetExceeded,
    DuplicateLabel,
    UnknownLabel,
)
from orderlab.fixtures import CHAIN2, DIAMOND, VEE
from orderlab.posets import (
    MAX_TABLE_ELEMENTS,
    bounded_complete_oracle,
    directed_subsets,
    down_sets,
    is_algebraic_and_dcpo,
    is_bounded_complete,
    is_directed,
    linear_extension,
    maximal_elements,
    supremum,
    up_sets,
    upper_bounds,
    validate_poset,
)


def test_validate_takes_transitive_closure():
    p = validate_poset(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert p.leq(0, 2)
    assert p.leq(0, 0)
    assert not p.leq(2, 0)


def test_validate_rejections():
    with pytest.raises(DuplicateLabel):
        validate_poset(("a", "a"), ())
    with pytest.raises(UnknownLabel):
        validate_poset(("a",), (("a", "z"),))
    with pytest.raises(AntisymmetryViolation):
        validate_poset(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(BudgetExceeded):
        validate_poset(tuple(f"x{i}" for i in range(61)), ())


def test_covers_of_diamond():
    got = {
        (DIAMOND.labels[i], DIAMOND.labels[j]) for i, j in DIAMOND.covers()
    }
    assert got == {("bot", "m1"), ("bot", "m2"), ("m1", "top"), ("m2", "top")}


def test_up_down_closures():
    assert VEE.up_closure(1) == 0b111
    assert VEE.down_closure(0b10) == 0b011
    assert VEE.is_up_set(0b110)
    assert not VEE.is_up_set(0b001)


def test_extrema_and_suprema():
    assert maximal_elements(VEE) == 0b110
    assert supremum(DIAMOND, 0b0110) == 3
    assert supremum(VEE, 0b110) is None
    assert upper_bounds(VEE, 0b110) == 0
    assert supremum(VEE, 0) == 0


def test_bounded_complete_verdicts():
    assert is_bounded_complete(CHAIN2) == (True, None)
    assert is_bounded_complete(DIAMOND)[0]
    # two maximal points over no bottom: the empty set is bounded but
    # has no supremum
    p = validate_poset(("a", "b"), ())
    verdict, witness = is_bounded_complete(p)
    assert not verdict and witness == 0
    # kite: two incomparable middles with two common upper bounds
    kite = validate_poset(
        ("bot", "l", "r", "u", "v"),
        (("bot", "l"), ("bot", "r"), ("l", "u"), ("r", "u"), ("l", "v"), ("r", "v")),
    )
    verdict, witness = is_bounded_complete(kite)
    assert not verdict and witness == 0b00110


def bounded_complete_by_loops(poset):
    """Reference for `bounded_complete_oracle`: every subset, its upper
    bounds by per-element comparison loops, least-ness tested pairwise."""
    elements = list(range(poset.n))
    failures = []
    for s in range(1 << poset.n):
        members = [i for i in elements if s >> i & 1]
        ubs = [u for u in elements if all(poset.leq(i, u) for i in members)]
        if not ubs:
            continue
        least = [u for u in ubs if all(poset.leq(u, v) for v in ubs)]
        if not least:
            failures.append(s)
    if failures:
        return False, min(failures, key=bits.subset_key)
    return True, None


def test_bounded_complete_routes_agree_exhaustively():
    # every poset on 4 labeled elements (bounded complete or not), both
    # computation paths and the per-element reference, verdict and witness
    from orderlab.reflections import all_posets

    verdicts = set()
    for p in all_posets(4):
        expected = bounded_complete_by_loops(p)
        assert is_bounded_complete(p) == bounded_complete_oracle(p) == expected
        verdicts.add(expected[0])
    assert verdicts == {True, False}


def test_bounded_complete_oracle_checks_its_budget_before_any_table(monkeypatch):
    def no_tables(n):
        raise AssertionError("truth table built past the budget")

    monkeypatch.setattr(bits, "subset_columns", no_tables)
    n = MAX_TABLE_ELEMENTS + 1
    labels = tuple(f"c{i}" for i in range(n))
    chain = validate_poset(labels, tuple(zip(labels, labels[1:])))
    with pytest.raises(BudgetExceeded, match=f"limited to {MAX_TABLE_ELEMENTS} elements"):
        bounded_complete_oracle(chain)
    with pytest.raises(BudgetExceeded, match=f"limited to {MAX_TABLE_ELEMENTS} elements"):
        is_algebraic_and_dcpo(chain)


def test_directedness_requires_nonempty():
    assert not is_directed(VEE, 0)
    assert is_directed(VEE, 0b001)
    assert not is_directed(VEE, 0b110)
    assert is_directed(DIAMOND, 0b1111)


def test_directed_subsets_have_maxima():
    # finite directed sets are exactly the nonempty sets with a maximum
    for d, sup in directed_subsets(DIAMOND):
        assert d and d >> sup & 1
        assert all(DIAMOND.leq(i, sup) for i in bits.indices_of(d))


def test_compact_and_algebraic():
    assert is_algebraic_and_dcpo(DIAMOND)
    assert is_algebraic_and_dcpo(VEE)


def test_linear_extension_respects_order():
    order = linear_extension(DIAMOND)
    pos = {x: k for k, x in enumerate(order)}
    for i in range(DIAMOND.n):
        for j in range(DIAMOND.n):
            if DIAMOND.leq(i, j):
                assert pos[i] <= pos[j]


def test_up_down_sets_are_duals():
    ups = set(up_sets(DIAMOND))
    downs = set(down_sets(DIAMOND))
    full = DIAMOND.full_mask
    assert {full & ~u for u in ups} == downs
    assert len(ups) == len(downs)
