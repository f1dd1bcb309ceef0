"""Closed-set families: filtered families, meeting sets, the squeeze, roles."""

import pytest

from orderlab import cofinite, families
from orderlab.cofinite import COFNAT, IRR_COFNAT
from orderlab.errors import CheckFailed, InvalidFamily, PreconditionViolated
from orderlab.families import (
    FilteredFamily,
    family_members,
    kf_sets,
    minimal_closed_meeting,
    wd_status,
)
from orderlab.fixtures import SIERPINSKI, VEE, discrete
from orderlab.scott import scott_space
from orderlab.spaces import (
    FinSpace,
    compact_saturated_sets,
    irreducible_closed_sets,
    point_closures,
)
from orderlab.systems import IRR, KF, SC, SubsetSystemId, hc


def test_filtered_family_validation():
    d = discrete(2)
    with pytest.raises(InvalidFamily):
        FilteredFamily(d, ())
    with pytest.raises(InvalidFamily):
        FilteredFamily(SIERPINSKI, (1,))  # not saturated: 1 is a closed point
    with pytest.raises(InvalidFamily):
        FilteredFamily(d, (1, 2))  # two disjoint members, no lower bound
    fam = FilteredFamily(d, (3, 1))
    assert fam.least_member() == 1


def test_minimal_closed_meeting_frozen():
    fam = FilteredFamily(SIERPINSKI, (2,))
    assert minimal_closed_meeting(SIERPINSKI, fam) == (3,)
    d = discrete(2)
    assert minimal_closed_meeting(d, FilteredFamily(d, (3, 1))) == (1,)


def test_meeting_sets_frozen():
    assert kf_sets(SIERPINSKI) == (1, 3)
    assert kf_sets(discrete(2)) == (1, 2)
    assert kf_sets(scott_space(VEE)) == (1, 3, 5)


def test_families_and_roles():
    s = SIERPINSKI
    for system in (SC, KF, IRR):
        assert hc(system, s) == (1, 3)
    assert hc(SubsetSystemId("IRR", True), s) == (1,)
    assert hc(SubsetSystemId("SC", True), discrete(2)) == (1, 2)
    assert family_members("Irr", COFNAT) == IRR_COFNAT
    with pytest.raises(PreconditionViolated, match="unknown family kind"):
        family_members("Q", s)
    with pytest.raises(PreconditionViolated, match="not int"):
        family_members("Sc", 42)


def test_wd_status_determined_on_finite_spaces():
    for space in (SIERPINSKI, discrete(2), discrete(3), scott_space(VEE)):
        wd = wd_status(space)
        assert wd == kf_sets(space) == irreducible_closed_sets(space)
        assert wd == point_closures(space)
        assert family_members("WD", space) == wd


def test_squeeze_raises_when_its_bounds_differ(monkeypatch):
    space = scott_space(VEE)
    real = families.kf_sets
    monkeypatch.setattr(families, "kf_sets", lambda sp: real(sp)[1:])
    wd_status.cache_clear()
    try:
        with pytest.raises(CheckFailed, match="squeeze bounds differ"):
            wd_status(space)
    finally:
        wd_status.cache_clear()
    monkeypatch.setattr(cofinite, "kf_cofnat", lambda: cofinite.SC_COFNAT)
    with pytest.raises(CheckFailed, match="squeeze bounds differ"):
        cofinite.wd_cofnat()


def test_sandwich_over_corpus(small_corpus):
    for poset in small_corpus:
        space = scott_space(poset)
        sc = set(point_closures(space))
        kf = set(kf_sets(space))
        irr = set(irreducible_closed_sets(space))
        assert sc <= kf <= irr
        assert set(wd_status(space)) == irr


def _dropping_answers(monkeypatch, drop):
    """Make the production route forget the compact sets in the `drop` mask."""
    real = families._meeting_by_minimal_points
    monkeypatch.setattr(
        families, "_meeting_by_minimal_points",
        lambda space: tuple(row & ~drop for row in real(space)),
    )


def test_single_set_sample_catches_a_dropped_member(monkeypatch):
    # the first compact set loses its one minimal meeting closed set
    _dropping_answers(monkeypatch, 0b1)
    kf_sets.cache_clear()
    try:
        with pytest.raises(CheckFailed, match="single-set scan disagrees"):
            kf_sets(scott_space(VEE))
    finally:
        kf_sets.cache_clear()


def test_single_set_check_covers_every_compact_set_of_a_large_space(monkeypatch):
    # 255 compact sets times 256 closed sets is past the 20 000 pairs
    # beyond which only the first and last 24 compact sets used to be
    # compared; the answer for one in the middle is dropped
    space = discrete(8)
    qx = compact_saturated_sets(space)
    assert len(qx) * len(space.closed) > 20_000
    middle = len(qx) // 2
    assert 24 <= middle < len(qx) - 24
    _dropping_answers(monkeypatch, 1 << middle)
    kf_sets.cache_clear()
    try:
        with pytest.raises(CheckFailed, match="single-set scan disagrees") as info:
            kf_sets(space)
    finally:
        kf_sets.cache_clear()
    assert info.value.witness == space.labels_of_mask(qx[middle])


def test_a_failing_single_set_check_names_the_callers_labels(monkeypatch):
    # equal preorders share a memo, but a failure is never cached, so
    # each caller's check runs on its own labels
    copies = [FinSpace(labels, SIERPINSKI.spec_up) for labels in (("p", "q"), ("x", "y"))]
    _dropping_answers(monkeypatch, 0b1)
    kf_sets.cache_clear()
    try:
        for space, top in zip(copies, ("q", "y")):
            with pytest.raises(CheckFailed, match="single-set scan disagrees") as info:
                kf_sets(space)
            assert info.value.witness == (top,)
    finally:
        kf_sets.cache_clear()


def test_two_member_scan_compares_nested_sets(monkeypatch):
    # the Sierpinski space's compact saturated sets {1} and {0,1} nest
    real = families._minimal_meeting
    compared = []

    def recording(space, members):
        if len(members) == 2:
            compared.append(tuple(members))
        return real(space, members)

    monkeypatch.setattr(families, "_minimal_meeting", recording)
    kf_sets.cache_clear()
    try:
        kf_sets(SIERPINSKI)
    finally:
        kf_sets.cache_clear()
    assert compared == [(0b11, 0b10)]


def test_two_member_scan_catches_a_dropped_member(monkeypatch):
    real = families._minimal_meeting

    def dropping(space, members):
        found = real(space, members)
        return found[1:] if len(members) == 2 else found

    monkeypatch.setattr(families, "_minimal_meeting", dropping)
    kf_sets.cache_clear()
    try:
        with pytest.raises(CheckFailed, match="two-member scan disagrees"):
            kf_sets(SIERPINSKI)
    finally:
        kf_sets.cache_clear()
