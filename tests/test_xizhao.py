"""Pair models over maximal points: structure, dichotomy, E-sets, homeomorphism."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from orderlab import posets, xizhao
from orderlab.errors import CheckFailed, InputError, NotBoundedComplete, NotUpperSet
from orderlab.fixtures import CHAIN2, DIAMOND, VEE
from orderlab.generate import generate_poset
from orderlab.posets import (
    FinPoset,
    is_algebraic_and_dcpo,
    is_bounded_complete,
    is_directed,
    maximal_elements,
    validate_poset,
)
from orderlab.spaces import is_homeomorphism
from orderlab.xizhao import (
    XiZhaoPoset,
    _dichotomy_failures,
    _dichotomy_holds,
    _dichotomy_scan,
    e_set,
    max_homeo_check,
    xizhao_model,
)


def test_vee_model_is_complete_bipartite():
    model = xizhao_model(VEE)
    assert model.poset.labels == ("a@b", "b@b", "a@c", "c@c")
    assert model.pairs == ((0, 1), (1, 1), (0, 2), (2, 2))
    # both bottom copies of a sit below both tops
    assert model.poset.up == (11, 2, 14, 8)
    assert model.max_mask == 0b1010
    assert model.nonmax_mask == 0b0101
    assert model.slice_masks == ((1, 0b0011), (2, 0b1100))
    assert model.top_index(1) == 1 and model.top_index(2) == 3


def test_chain_and_diamond_models():
    m = xizhao_model(CHAIN2)
    assert m.poset.labels == ("a@b", "b@b")
    assert m.poset.up == (3, 2)
    m = xizhao_model(DIAMOND)
    # one maximal point, so a single slice carrying the whole order
    assert m.poset.labels == ("bot@top", "m1@top", "m2@top", "top@top")
    assert m.max_mask == 0b1000
    assert m.slice_masks == ((3, 0b1111),)


def test_model_rejects_unbounded_base():
    antichain = FinPoset(("a", "b"), (1, 2))
    with pytest.raises(NotBoundedComplete):
        xizhao_model(antichain)


def test_model_refuses_at_in_base_labels():
    for doc in (
        (("a@b",), ()),
        (("z", "a@b", "c", "a", "b@c"),
         (("z", "a@b"), ("a@b", "c"), ("z", "a"), ("a", "b@c"))),
    ):
        with pytest.raises(InputError, match="'a@b'"):
            xizhao_model(validate_poset(*doc))


def test_directed_dichotomy_exhaustive():
    avoiding_max = 0
    for base in (CHAIN2, VEE, DIAMOND):
        model = xizhao_model(base)
        n = len(model.pairs)
        for d in range(1, 1 << n):
            if is_directed(model.poset, d):
                assert _dichotomy_holds(model, d)
                avoiding_max += not d & model.max_mask
    assert avoiding_max  # the single-slice alternative is exercised


def test_dichotomy_fails_on_orders_that_break_it():
    # a@b below a@c links the two slice interiors of the vee model:
    # {a@b, a@c} is directed, misses the maximal pairs, and fits no slice
    vee = xizhao_model(VEE)
    linked = FinPoset(vee.poset.labels, (0b1111,) + vee.poset.up[1:])
    assert not _dichotomy_holds(XiZhaoPoset(VEE, linked, vee.pairs), 0b0101)
    # m1@top below m2@top inside the diamond's one slice: the set
    # {m1@top, m2@top} is directed but its base coordinates are not
    dia = xizhao_model(DIAMOND)
    up = list(dia.poset.up)
    up[1] |= up[2]
    crossed = FinPoset(dia.poset.labels, tuple(up))
    assert not _dichotomy_holds(XiZhaoPoset(DIAMOND, crossed, dia.pairs), 0b0110)
    # the table scan raises on the same sets, the first failing ones
    for base, order, pairs, witness in ((VEE, linked, vee.pairs, 0b0101),
                                        (DIAMOND, crossed, dia.pairs, 0b0110)):
        with pytest.raises(CheckFailed, match="dichotomy failed") as info:
            _dichotomy_scan(XiZhaoPoset(base, order, pairs))
        assert info.value.witness == witness


@st.composite
def perturbed_models(draw):
    """A pair model of at most 10 pairs with its order replaced by a
    random order on the same pairs, so the dichotomy may fail anywhere."""
    base = generate_poset(draw(st.integers(0, 2**32)), 4)
    model = xizhao_model(base)
    n = len(model.pairs)
    if n > 10:
        model = xizhao_model(CHAIN2)
        n = len(model.pairs)
    labels = model.poset.labels
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    order = validate_poset(labels, pairs)
    return XiZhaoPoset(model.base, order, model.pairs)


@given(perturbed_models())
@settings(max_examples=60, deadline=None)
def test_dichotomy_table_is_the_per_set_check(model):
    failing = _dichotomy_failures(model)
    n = model.poset.n
    assert failing >> (1 << n) == 0
    for d in range(1 << n):
        expected = is_directed(model.poset, d) and not _dichotomy_holds(model, d)
        assert bool(failing >> d & 1) == expected


def test_no_per_subset_loop_runs(monkeypatch):
    # a bottom below five atoms has a 10-pair model, the largest whose
    # dichotomy is scanned; the tables cover every subset without one
    # per-set call
    fan = validate_poset(("b",) + tuple(f"a{i}" for i in range(5)),
                         tuple(("b", f"a{i}") for i in range(5)))
    bounded = is_bounded_complete(fan)
    assert bounded[0]
    chain = validate_poset(tuple(f"c{i}" for i in range(16)),
                           tuple((f"c{i}", f"c{i + 1}") for i in range(15)))

    def refuse(*args):
        raise AssertionError("per-subset call")

    for module in (posets, xizhao):
        monkeypatch.setattr(module, "is_directed", refuse)
    monkeypatch.setattr(posets, "supremum", refuse)
    # the bounded-completeness check is polynomial; its verdict is given
    monkeypatch.setattr(xizhao, "is_bounded_complete", lambda poset: bounded)
    model = xizhao_model.__wrapped__(fan)
    assert len(model.pairs) == 10
    started = time.monotonic()
    assert is_algebraic_and_dcpo(chain)
    assert time.monotonic() - started < 2.0


def test_e_set_display_matches_scan():
    model = xizhao_model(VEE)
    assert e_set(model, model.poset.full_mask) == 0b1010
    # up-closure of a@b meets both slices off the diagonal? no: only slice b
    assert e_set(model, model.poset.up[0]) == 0b0010
    # a purely maximal upper set has an empty E-set
    assert e_set(model, 0b0010) == 0
    with pytest.raises(NotUpperSet):
        e_set(model, 0b0001)


def test_max_homeo_on_fixtures():
    for base in (CHAIN2, VEE, DIAMOND):
        f = max_homeo_check(xizhao_model(base))
        assert is_homeomorphism(f)
    f = max_homeo_check(xizhao_model(VEE))
    assert f.source.labels == ("b@b", "c@c")
    assert f.target.labels == ("b", "c")
    assert f.graph == (0, 1)


def test_models_over_corpus(small_corpus):
    for base in small_corpus:
        model = xizhao_model(base)
        # carrier size: one pair per (point below a maximal point)
        expected = sum(
            base.down[e].bit_count()
            for e in range(base.n)
            if maximal_elements(base) >> e & 1
        )
        assert len(model.pairs) == expected
        max_homeo_check(model)
