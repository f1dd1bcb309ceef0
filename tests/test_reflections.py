"""Reflections, stage iteration, the closure embedding, and the equations."""

import dataclasses

import pytest

from orderlab import bits, reflections
from orderlab.errors import BudgetExceeded, CheckFailed, SandwichViolated
from orderlab.fixtures import DIAMOND, FIXTURE_POSETS, SIERPINSKI, VEE, discrete
from orderlab.reflections import (
    EQUATION_NAMES,
    all_posets,
    claim_embed2_check,
    decomposition_check,
    finite_collapse_check,
    j_embedding_check,
    pair_conditions_check,
    shen_iterate,
    sobrification,
    universal_property_smoke,
    wf_reflection,
)
from orderlab.scott import scott_space
from orderlab.report import analyze_poset
from orderlab.spaces import (
    FinSpace,
    HyperSpace,
    is_homeomorphism,
    member_label,
    point_closures,
)
from orderlab.xizhao import xizhao_model


def test_finite_reflections_are_copies():
    for space in (SIERPINSKI, discrete(2), scott_space(VEE)):
        out = finite_collapse_check(space)
        assert is_homeomorphism(out["sober"])
        assert is_homeomorphism(out["wf"])
    hyper = sobrification(SIERPINSKI)
    assert hyper.space.n == 2
    assert wf_reflection(SIERPINSKI).members == hyper.members


def test_stage_iteration_default_ambient():
    for space in (SIERPINSKI, discrete(3), scott_space(DIAMOND)):
        chain = shen_iterate(space)
        assert chain.stabilization_index == 0
        assert chain.stages == (chain.ambient.full_mask,)


def test_j_embedding_frozen_images():
    expected = {
        "CHAIN2": ["{a@b,b@b}"],
        "VEE": ["{a@b,b@b,a@c}", "{a@b,a@c,c@c}"],
        "DIAMOND": ["{bot@top,m1@top,m2@top,top@top}"],
    }
    for name, poset in FIXTURE_POSETS.items():
        rep = j_embedding_check(poset, "sober")
        assert rep.embedding and rep.square_commutes
        assert rep.image_law and rep.inverse_law and rep.image_saturated
        sigma = scott_space(xizhao_model(poset).poset)
        labels = [
            member_label(sigma, m)
            for m in sorted(
                # decode the image points back to base-space closed sets
                _member_of(poset, i)
                for i in bits.indices_of(rep.image_mask)
            )
        ]
        assert sorted(labels) == sorted(expected[name])


def _member_of(poset, hyper_index):
    from orderlab.spaces import irreducible_closed_sets, ph_space

    sigma = xizhao_model(poset).sigma
    hyper = ph_space(sigma, irreducible_closed_sets(sigma))
    return hyper.members[hyper_index]


def test_j_embedding_wf_kind():
    for poset in FIXTURE_POSETS.values():
        rep = j_embedding_check(poset, "wf")
        assert rep.embedding and rep.square_commutes and rep.image_law


def test_pair_conditions_on_fixture_families():
    sigma = scott_space(xizhao_model(VEE).poset)
    wit = pair_conditions_check(VEE, point_closures(sigma))
    assert wit.p1 and wit.p2 and wit.p3
    assert wit.compact_preimages_checked == 6
    assert wit.witness is None


def test_pair_conditions_sandwich_guards():
    sigma = scott_space(xizhao_model(VEE).poset)
    with pytest.raises(SandwichViolated):
        pair_conditions_check(VEE, (sigma.full_mask,))  # misses point closures
    with pytest.raises(SandwichViolated):
        # adding the reducible two-bottom down-set escapes the irreducibles
        pair_conditions_check(VEE, point_closures(sigma) + (0b0101,))


def test_decomposition_equations_on_vee():
    sizes = {}
    for name in EQUATION_NAMES:
        for verdict in decomposition_check(VEE, name):
            assert verdict.passed, verdict
            assert verdict.diff == ()
            sizes[verdict.name] = (verdict.lhs_size, verdict.rhs_size)
    assert sizes == {
        "EQ0": (4, 4),
        "EQ1/model": (4, 4),
        "EQ1/max": (2, 2),
        "EQ2[Sc]/hyper": (4, 4),
        "EQ2[Sc]/up-part": (2, 2),
        "EQ2[Irr]/hyper": (4, 4),
        "EQ2[Irr]/up-part": (2, 2),
        "KFSET2/model": (4, 4),
        "KFSET2/max": (2, 2),
        "EQ3/model": (4, 4),
        "EQ3/max": (2, 2),
    }


def test_decomposition_equations_all_fixtures():
    for poset in FIXTURE_POSETS.values():
        for name in EQUATION_NAMES:
            for verdict in decomposition_check(poset, name):
                assert verdict.passed, (poset.labels, verdict)
    with pytest.raises(CheckFailed):
        decomposition_check(VEE, "EQ9")


def test_all_posets_counts():
    assert tuple(len(all_posets(n)) for n in range(1, 5)) == (1, 3, 19, 219)
    # antisymmetry and transitivity spot-checks on the 3-point batch
    for p in all_posets(3):
        for i in range(3):
            for j in range(3):
                if i != j and p.leq(i, j):
                    assert not p.leq(j, i)


def test_universal_property_smoke():
    rep = universal_property_smoke(SIERPINSKI, "SOBER")
    assert (rep.targets, rep.maps_checked) == (242, 1770)
    rep = universal_property_smoke(discrete(2), "WF")
    assert (rep.targets, rep.maps_checked) == (242, 3688)
    with pytest.raises(BudgetExceeded):
        universal_property_smoke(SIERPINSKI, "SOBER", budget=5)
    with pytest.raises(CheckFailed):
        universal_property_smoke(SIERPINSKI, "T1")


def test_paired_stage_chains():
    for poset in FIXTURE_POSETS.values():
        rep = claim_embed2_check(poset)
        assert rep.x_index == 0 and rep.y_index == 0
        assert rep.stages_checked == 2
        assert rep.x_stages[0] == rep.x_stages[-1]


def test_equations_over_corpus(small_corpus):
    for poset in small_corpus[:20]:
        for name in ("EQ0", "EQ1", "KFSET2", "EQ3"):
            for verdict in decomposition_check(poset, name):
                assert verdict.passed, (poset.labels, verdict)


class _MeetsDropsOne(HyperSpace):
    def diamond(self, base_mask):
        hit = super().diamond(base_mask)
        return hit & (hit - 1)


# each entry breaks one route of the up-part helper, leaving the other
BROKEN_UP_PART_ROUTES = {
    # the specialization order made indiscrete: everything is above eta(Max)
    "order": lambda h: dataclasses.replace(
        h, space=FinSpace(h.space.labels, (h.space.full_mask,) * h.space.n)
    ),
    # the members meeting Max lose one
    "meets": lambda h: _MeetsDropsOne(h.space, h.base, h.members, h.eta),
}


@pytest.mark.parametrize("route", sorted(BROKEN_UP_PART_ROUTES))
def test_a_broken_up_part_route_fails_every_runner(monkeypatch, empty_caches, route):
    real = reflections._eta_max_up

    def broken(model, hyper):
        return real(model, BROKEN_UP_PART_ROUTES[route](hyper))

    # `empty_caches`: a value memoized by an earlier call would skip the
    # broken route
    monkeypatch.setattr(reflections, "_eta_max_up", broken)
    report = analyze_poset(VEE)
    assert report["verdict"] == "FAIL"
    errors = {w["check"]: w["error"] for w in report["witnesses"]}
    for check in ("EQ0", "EQ2", "embed[sober]", "embed[wf]", "embed2",
                  "pair[Sc]", "pair[Irr]"):
        assert errors[check].endswith("up-part routes disagree in the hyperspace")


def test_a_failed_stage_chain_fails_embed2(monkeypatch):
    """embed2 reads its two chains from `shen_iterate`, so a failure there
    is embed2's witness, with shen_iterate's message; the report's own
    shen check does not go through the reflections module and holds."""

    def failing(space):
        raise CheckFailed("finite input did not fill its sobrification")

    monkeypatch.setattr(reflections, "shen_iterate", failing)
    with pytest.raises(CheckFailed, match="did not fill"):
        claim_embed2_check(VEE)
    report = analyze_poset(VEE, ("shen", "embed2"))
    assert [(w["check"], w["error"]) for w in report["witnesses"]] == [
        ("embed2", "verification failed: finite input did not fill its sobrification"),
    ]
    assert list(report["checks"]) == ["shen"]


def test_a_fail_report_keeps_its_shape(monkeypatch, empty_caches):
    """A failed sub-check leaves out its tag or row, and a failed
    single check its key; witnesses list the equations, then the checks
    in selector order."""
    real = reflections._eta_max_up

    def broken(model, hyper):
        return real(model, BROKEN_UP_PART_ROUTES["meets"](hyper))

    monkeypatch.setattr(reflections, "_eta_max_up", broken)
    report = analyze_poset(VEE)
    assert report["verdict"] == "FAIL"
    assert [w["check"] for w in report["witnesses"]] == [
        "EQ0", "EQ2", "pair[Sc]", "pair[Irr]",
        "embed[sober]", "embed[wf]", "embed2",
    ]
    shape = {
        name: [[row["h"], row["g"]] for row in entry]
        if isinstance(entry, list) else sorted(entry)
        for name, entry in report["checks"].items()
    }
    assert list(shape) == ["pair", "embed", "shen", "key", "agreement", "classify"]
    assert shape == {
        "pair": [],
        "embed": [],
        "shen": ["max", "model"],
        "key": [["SC", "KF"], ["SC", "WD"], ["SC", "IRR"],
                ["KF", "WD"], ["KF", "IRR"], ["WD", "IRR"]],
        "agreement": ["agree", "compared"],
        "classify": ["max_panel"],
    }
    assert [e["name"] for e in report["equations"]] == [
        "EQ1/model", "EQ1/max", "KFSET2/model", "KFSET2/max",
        "EQ3/model", "EQ3/max",
    ]
