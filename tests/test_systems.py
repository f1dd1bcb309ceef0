"""Subset-system evaluators, agreement tables, panels, and theorem checks."""

import itertools

import pytest

from orderlab import cofinite, families, systems
from orderlab.cofinite import COFNAT, IRR_COFNAT
from orderlab.errors import CheckFailed, PreconditionViolated
from orderlab.fixtures import DIAMOND, FIXTURE_POSETS, SIERPINSKI, VEE, discrete
from orderlab.scott import scott_space
from orderlab.spaces import make_space
from orderlab.xizhao import xizhao_model
from orderlab.systems import (
    ARROWS,
    CITED,
    DISTINCTNESS,
    FLAG_ORDER,
    IRR,
    KF,
    MACHINE,
    PRESERVED_FLAGS,
    SC,
    SYSTEM_KINDS,
    UNKNOWN,
    WD,
    ClassifierPanel,
    Flag,
    SubsetSystemId,
    _agreement_flag,
    _check_arrows,
    classifier_agreement,
    classify,
    hc,
    hmodel_table,
    proposition_key_check,
    verify_distinctness_registry,
)


def test_system_ids():
    assert SC.label == "SC" and not SC.starred
    assert SubsetSystemId("KF", starred=True).label == "KF*"
    with pytest.raises(PreconditionViolated):
        SubsetSystemId("XX")


def test_evaluator_on_finite_spaces():
    assert hc(SC, SIERPINSKI) == (1, 3)
    assert hc(KF, discrete(2)) == (1, 2)
    assert hc(IRR, SIERPINSKI) == (1, 3)
    assert hc(WD, SIERPINSKI) == (1, 3)
    assert hc(SubsetSystemId("IRR", True), SIERPINSKI) == (1,)
    assert hc(SubsetSystemId("WD", True), SIERPINSKI) == (1,)
    with pytest.raises(PreconditionViolated):
        hc(SC, 42)


def test_evaluator_on_the_cofinite_line():
    assert hc(IRR, COFNAT) == IRR_COFNAT
    assert hc(SubsetSystemId("IRR", True), COFNAT).describe() == "ALL_SINGLETONS"
    assert hc(SC, COFNAT).describe() == "ALL_SINGLETONS"
    assert hc(WD, COFNAT) == IRR_COFNAT
    assert hc(SubsetSystemId("WD", True), COFNAT).describe() == "ALL_SINGLETONS"


def test_distinctness_registry():
    grades = verify_distinctness_registry()
    assert grades == {
        ("KF", "SC"): MACHINE,
        ("SC", "WD"): MACHINE,
        ("IRR", "SC"): MACHINE,
        ("IRR", "KF"): CITED,
        ("IRR", "WD"): CITED,
        ("KF", "WD"): UNKNOWN,
    }
    assert len(DISTINCTNESS) == 6


def test_agreement_tables_on_the_cofinite_line():
    table = hmodel_table(COFNAT)
    assert table.space_name == "cofinite-nat"
    # the point-closure family stands alone; the other three coincide
    for g in ("KF", "WD", "IRR"):
        assert table.cell("SC", g) is False
        assert table.cell("KF", g) is True
    # dropping the whole line collapses everything to the singletons
    for h, g in itertools.combinations(SYSTEM_KINDS, 2):
        assert table.cell(h, g, starred=True) is True
    assert table.h_model.value is True
    assert "KF agrees with IRR" in table.h_model.witness
    assert "cited" in table.h_model.witness
    assert table.weak_h_model.value is True
    assert "SC* agrees with KF*" in table.weak_h_model.witness
    assert "machine" in table.weak_h_model.witness


def test_agreement_flag_fallbacks():
    all_false = tuple(
        tuple(True if i == j else False for j in range(4)) for i in range(4)
    )
    flag = _agreement_flag("h_model", all_false, False)
    assert flag.value is False and "lower bound" in flag.witness


def test_classify_cofinite_panel():
    panel = classify(COFNAT)
    assert tuple(f.name for f in panel.flags) == FLAG_ORDER
    assert panel.as_dict() == {
        "sober": False,
        "well_filtered": False,
        "rudin": True,
        "wd_space": True,
        "wk_space": True,
        "weak_sober": True,
        "weak_well_filtered": True,
        "h_model": True,
        "weak_h_model": True,
    }
    assert "no generic point" in panel.flag("sober").witness


def test_classify_finite_spaces():
    for space in (SIERPINSKI, discrete(2), scott_space(VEE), scott_space(DIAMOND)):
        panel = classify(space)
        assert tuple(f.name for f in panel.flags) == FLAG_ORDER
        # finite T0 spaces are sober, so the whole panel collapses to true
        assert all(f.value is True for f in panel.flags)


def test_classify_rejections():
    indiscrete = make_space(("x", "y"), (0, 3))
    with pytest.raises(PreconditionViolated):
        classify(indiscrete)
    with pytest.raises(PreconditionViolated):
        classify("not a space")


def test_a_rejected_space_is_not_cached():
    indiscrete = make_space(("x", "y"), (0, 3))
    classify.cache_clear()
    for _ in range(2):
        with pytest.raises(PreconditionViolated, match="T0 carrier"):
            classify(indiscrete)
    assert classify.cache_info().currsize == 0
    assert classify(SIERPINSKI) is classify(SIERPINSKI)
    assert classify.cache_info().misses == 3


def test_arrow_checker():
    assert ARROWS == (
        ("sober", "well_filtered"),
        ("sober", "rudin"),
        ("rudin", "wd_space"),
        ("rudin", "wk_space"),
        ("well_filtered", "wk_space"),
    )
    flags = tuple(
        Flag(n, n not in ("well_filtered",), "synthetic")
        for n in FLAG_ORDER
    )
    bad = ClassifierPanel("synthetic", flags)
    with pytest.raises(CheckFailed):
        _check_arrows(bad)
    with pytest.raises(PreconditionViolated):
        bad.flag("nonexistent")


def test_classifier_agreement_on_fixtures():
    for poset in FIXTURE_POSETS.values():
        rep = classifier_agreement(poset)
        assert rep.agree and rep.compared == PRESERVED_FLAGS
        for name in PRESERVED_FLAGS:
            assert rep.max_panel.flag(name).value == rep.model_panel.flag(name).value


def test_key_biconditionals():
    pairs = list(itertools.combinations((SC, KF, WD, IRR), 2))
    assert len(pairs) == 6
    for poset in FIXTURE_POSETS.values():
        for h, g in pairs:
            verdict = proposition_key_check(poset, h, g)
            assert verdict.biconditional and verdict.star_biconditional
    with pytest.raises(PreconditionViolated):
        proposition_key_check(VEE, SubsetSystemId("SC", True), KF)


def test_classify_over_corpus(small_corpus):
    for poset in small_corpus[:30]:
        panel = classify(scott_space(poset))
        assert all(f.value is True for f in panel.flags)


# The cross-checks below compare the shared agreement table across the two
# spaces of a pair model and across both carriers; each is made to fail.


def test_soberness_routes_that_disagree_fail_the_panel(monkeypatch, empty_caches):
    monkeypatch.setattr(systems, "is_sober", lambda x: (False, None))
    with pytest.raises(CheckFailed, match="soberness routes disagree on"):
        classify(SIERPINSKI)
    monkeypatch.setattr(systems, "sober_by_generic_points", lambda: True)
    with pytest.raises(CheckFailed, match="soberness routes disagree on cofinite-nat"):
        classify(COFNAT)


def test_a_perturbed_family_of_the_maximal_part_fails_the_key_check(
    monkeypatch, empty_caches
):
    maxsub, _incl = xizhao_model(VEE).max_space
    real = systems.family_members

    def perturbed(kind, x):
        fam = real(kind, x)
        return fam[1:] if kind == "KF" and x == maxsub else fam

    monkeypatch.setattr(systems, "family_members", perturbed)
    with pytest.raises(CheckFailed, match="key biconditional failed") as info:
        proposition_key_check(VEE, SC, KF)
    verdict = info.value.witness
    assert verdict.model_equal and not verdict.max_equal
    assert proposition_key_check(VEE, SC, IRR).biconditional


def test_machine_separation_fails_when_the_cofinite_line_stops_separating(
    monkeypatch, empty_caches
):
    monkeypatch.setattr(families, "sc_cofnat", cofinite.irr_cofnat)
    with pytest.raises(CheckFailed, match="machine separation failed"):
        verify_distinctness_registry()
    with pytest.raises(CheckFailed, match="machine separation failed"):
        classify(COFNAT)
