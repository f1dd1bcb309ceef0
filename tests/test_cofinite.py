"""The cofinite line: exact set algebra, symbolic families, window oracle."""

import random

import pytest

from orderlab.cofinite import (
    COFNAT,
    EMPTY,
    IRR_COFNAT,
    SC_COFNAT,
    WHOLE,
    CoSet,
    SymClosedFamily,
    SymFilteredFamily,
    cofin,
    eval_symbolic,
    fin,
    irr_cofnat,
    irreducible_coset,
    kf_cofnat,
    kf_witness_for,
    kf_witness_window_check,
    m_cofnat,
    random_coset_expr,
    sc_cofnat,
    shen_cofnat,
    sober_by_generic_points,
    sobrify_cofnat,
    wd_cofnat,
    wfreflect_cofnat,
    window_oracle,
    SobSet,
)
from orderlab.errors import CheckFailed, InputError, PreconditionViolated
from orderlab.systems import FLAGS, classify


def test_coset_algebra_frozen():
    assert cofin(0, 1).inter(cofin(1, 2)) == cofin(0, 1, 2)
    assert fin(3, 4).union(cofin(4, 5)) == cofin(5)
    assert fin(1, 2).union(fin(2, 3)) == fin(1, 2, 3)
    assert cofin(7).complement() == fin(7)
    assert fin(1).is_subset(cofin(0))
    assert not fin(0).is_subset(cofin(0))
    assert cofin(5).member(4) and not cofin(5).member(5)
    assert EMPTY.is_empty and WHOLE.is_whole
    assert fin(1, 2).describe() == "{1,2}"
    assert WHOLE.describe() == "N"
    assert cofin(3).describe() == "N\\{3}"


def test_coset_canonical_form():
    with pytest.raises(CheckFailed):
        CoSet(False, (2, 1))
    with pytest.raises(InputError):
        CoSet(False, (-1,))
    # constructors normalise duplicates and order
    assert fin(2, 1, 2) == CoSet(False, (1, 2))


def test_space_predicates():
    assert COFNAT.is_open(EMPTY) and COFNAT.is_open(cofin(7))
    assert not COFNAT.is_open(fin(1))
    assert COFNAT.is_closed(fin(1)) and COFNAT.is_closed(WHOLE)
    assert not COFNAT.is_closed(cofin(7))
    assert COFNAT.closure(cofin(3)) == WHOLE
    assert COFNAT.closure(fin(3)) == fin(3)
    assert COFNAT.point_closure(5) == fin(5)
    assert COFNAT.is_t1()
    assert not COFNAT.is_compact_saturated(EMPTY)
    assert COFNAT.is_compact_saturated(fin(2))
    assert COFNAT.is_compact_saturated(cofin(2))


def test_symbolic_families():
    assert sc_cofnat() == SC_COFNAT
    assert irr_cofnat() == IRR_COFNAT
    assert kf_cofnat() == IRR_COFNAT
    assert SC_COFNAT.describe() == "ALL_SINGLETONS"
    assert IRR_COFNAT.describe() == "ALL_SINGLETONS + WHOLE"
    assert IRR_COFNAT.contains(WHOLE) and IRR_COFNAT.contains(fin(3))
    assert not IRR_COFNAT.contains(fin(1, 2))
    assert not IRR_COFNAT.contains(cofin(1))
    assert IRR_COFNAT.starred() == SC_COFNAT


def test_symbolic_family_guards():
    with pytest.raises(CheckFailed):
        SymClosedFamily(except_points=(1,))
    with pytest.raises(CheckFailed):
        SymClosedFamily(finite_list=(cofin(1),))
    with pytest.raises(CheckFailed):
        SymClosedFamily(all_singletons=True, finite_list=(fin(1),))
    with pytest.raises(CheckFailed):
        SymClosedFamily(finite_list=(fin(1, 2), fin(3)))  # not canonical


def test_irreducible_shapes():
    assert irreducible_coset(fin(4))
    assert not irreducible_coset(fin(1, 2))
    assert irreducible_coset(WHOLE)
    assert not irreducible_coset(cofin(1))
    assert not irreducible_coset(EMPTY)


def test_minimal_meeting_schemas():
    m = m_cofnat(SymFilteredFamily("single", fin(1, 2)))
    assert m == SymClosedFamily(finite_list=(fin(1), fin(2)))
    m = m_cofnat(SymFilteredFamily("single", cofin(0, 1)))
    assert m.describe() == "ALL_SINGLETONS\\{{0},{1}}"
    assert m.contains(fin(2)) and not m.contains(fin(0))
    m = m_cofnat(SymFilteredFamily("all-cofinite"))
    assert m == SymClosedFamily(whole=True)
    assert m.describe() == "WHOLE"


def test_witness_families():
    assert kf_witness_for(WHOLE).schema == "all-cofinite"
    assert kf_witness_for(fin(3)) == SymFilteredFamily("single", fin(3))
    with pytest.raises(PreconditionViolated):
        kf_witness_for(fin(1, 2))
    with pytest.raises(PreconditionViolated):
        SymFilteredFamily("single", EMPTY)
    with pytest.raises(PreconditionViolated):
        SymFilteredFamily("all-cofinite", fin(1))
    with pytest.raises(PreconditionViolated):
        SymFilteredFamily("prime")
    tail = SymFilteredFamily("all-cofinite")
    assert tail.has_member(cofin(9)) and not tail.has_member(fin(9))


def test_squeeze_is_determined():
    assert wd_cofnat() == kf_cofnat() == IRR_COFNAT


def test_classification_panel():
    panel = classify(COFNAT)
    assert panel.space_name == "cofinite-nat"
    flags = {f.name: f.value for f in panel.flags[:len(FLAGS)]}
    assert flags == {
        "sober": False,
        "well_filtered": False,
        "rudin": True,
        "wd_space": True,
        "wk_space": True,
        "weak_sober": True,
        "weak_well_filtered": True,
    }
    # each witness is the table's note for the cofinite line
    assert [f.witness for f in panel.flags[:len(FLAGS)]] == [row[-1] for row in FLAGS]
    assert sober_by_generic_points() is False


def test_sobrification():
    sob = sobrify_cofnat()
    assert sob.added_points == ("TOP",)
    assert sob.sober_check()
    assert sob.eta_embedding_check()
    assert sob.closure(SobSet(WHOLE, False)) == sob.point_closure_top()
    assert sob.irreducible(SobSet(fin(1), False))
    assert not sob.irreducible(SobSet(fin(1, 2), False))
    assert sob.is_open(SobSet(WHOLE, True))
    assert sob.is_open(SobSet(cofin(1), True))
    assert not sob.is_open(SobSet(cofin(1), False))
    assert sob.is_closed(SobSet(fin(1), False))
    assert SobSet(WHOLE, True).describe() == "N + TOP"
    assert SobSet(fin(1), True).describe() == "{1} + TOP"
    assert SobSet(fin(1), False).describe() == "{1}"


def test_reflection_coincides_with_sobrification():
    sob, same = wfreflect_cofnat()
    assert same and sob.added_points == ("TOP",)


def test_stage_chain():
    ch = shen_cofnat()
    assert ch.stabilization_index == 1
    assert [s.describe() for s in ch.stages] == ["N", "N + TOP", "N + TOP"]
    assert ch.added == ("TOP",)


def test_window_oracle():
    out = window_oracle(("inter", ("cofin", (0, 1)), ("cofin", (1, 2))), 10)
    assert out["agree"]
    assert out["symbolic"] == "N\\{0,1,2}"
    assert out["window"] == [3, 4, 5, 6, 7, 8, 9]
    out = window_oracle(("subset", ("fin", (1,)), ("cofin", (0,))), 6)
    assert out["agree"] and out["symbolic"] is True
    out = window_oracle(("isclosed", ("closure", ("cofin", (2,)))), 5)
    assert out["agree"] and out["symbolic"] is True


def test_window_bounds():
    with pytest.raises(InputError):
        window_oracle(("fin", (1,)), 0)
    with pytest.raises(InputError):
        window_oracle(("fin", (1,)), 65)
    with pytest.raises(InputError):
        window_oracle(("fin", (70,)), 10)
    with pytest.raises(InputError):
        window_oracle(("member", 12, ("fin", (1,))), 10)
    with pytest.raises(InputError):
        eval_symbolic(("xor", ("fin", (1,))))


def test_whole_line_witness_window():
    assert kf_witness_window_check()


def test_random_expression_agreement():
    rng = random.Random(7)
    for _ in range(200):
        expr = random_coset_expr(rng, rng.randint(0, 3))
        assert window_oracle(expr, 16)["agree"]
