"""Space validation, closure/saturation, compactness, and hyperspaces."""

import pytest

from orderlab import bits, spaces
from orderlab.errors import (
    CheckFailed,
    FamilyNotIrreducible,
    InputError,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)
from orderlab.families import kf_sets, wd_status
from orderlab.fixtures import SIERPINSKI, discrete
from orderlab.spaces import (
    ContinuousMap,
    FinSpace,
    compact_saturated_sets,
    continuous_maps,
    irreducible_closed_sets,
    is_embedding,
    is_homeomorphism,
    is_injective,
    is_sober,
    make_space,
    ph_space,
    point_closures,
    subspace,
)
from orderlab.fixtures import DIAMOND, VEE
from orderlab.posets import FinPoset, validate_poset
from orderlab.reflections import all_posets
from orderlab.scott import scott_space


def test_make_space_rejections():
    with pytest.raises(MissingEmptyOrFull):
        make_space(("a", "b"), (0, 1))
    with pytest.raises(NotClosedUnderUnion):
        make_space(("a", "b", "c"), (0, 1, 2, 7))
    with pytest.raises(NotClosedUnderIntersection):
        make_space(("a", "b", "c"), (0, 3, 5, 7))
    # more than 256 opens: the discrete topology on 9 points without {a, b}
    with pytest.raises(NotClosedUnderUnion) as info:
        make_space(tuple("abcdefghi"), [m for m in range(1 << 9) if m != 0b11])
    assert info.value.pair == (("a",), ("b",))


def test_make_space_refuses_masks_outside_the_carrier():
    for mask in (0b10, 0b11, -1):
        with pytest.raises(InputError, match="outside the 1-point carrier"):
            make_space(("a",), (0, 1, mask))


def test_make_space_names_a_witness_without_enumerating_up_sets(monkeypatch):
    # the singletons on 40 points (with the empty and full set) have 2^40
    # up-sets in their specialization order; a rejection must not list them
    import orderlab.spaces

    def refuse(spec_up):
        raise AssertionError("up-sets enumerated for a rejected family")

    monkeypatch.setattr(orderlab.spaces, "_preorder_up_sets", refuse)
    labels = tuple(f"p{i}" for i in range(40))
    with pytest.raises(NotClosedUnderUnion) as info:
        make_space(labels, [0, (1 << 40) - 1] + [1 << i for i in range(40)])
    assert info.value.pair == (("p0",), ("p1",))


def test_space_is_validated_as_a_preorder():
    with pytest.raises(CheckFailed, match="reflexive"):
        spaces.FinSpace(("a", "b"), (0b11, 0b01))
    with pytest.raises(CheckFailed, match="transitive"):
        spaces.FinSpace(("a", "b", "c"), (0b011, 0b110, 0b100))
    with pytest.raises(CheckFailed, match="one up-mask per label"):
        spaces.FinSpace(("a", "b"), (0b01,))
    # a preorder need not be antisymmetric: the indiscrete space
    assert spaces.FinSpace(("a", "b"), (0b11, 0b11)).opens == (0, 0b11)


def test_sierpinski_structure():
    s = SIERPINSKI
    assert s.opens == (0, 2, 3)
    assert s.closed == (0, 1, 3)
    # the open point specializes above the closed point
    assert s.spec_down == (0b01, 0b11)
    assert s.spec_up == (0b11, 0b10)
    assert s.is_t0


def test_closure_routes_agree():
    s = SIERPINSKI
    for mask in range(4):
        assert s.closure(mask) == s.closure_definitional(mask)
    assert s.closure(0b10) == 0b11
    # the closed point sits at the bottom of specialization, so its
    # saturation (intersection of neighbourhoods) is the whole space
    assert s.saturation(0b01) == 0b11
    assert s.saturation(0b10) == 0b10
    d = discrete(3)
    for mask in range(8):
        assert d.closure(mask) == mask
        assert d.saturation(mask) == mask


def test_specialization_round_trip():
    p = FinPoset(SIERPINSKI.labels, SIERPINSKI.spec_up)
    assert p.labels == ("0", "1")
    assert p.leq(0, 1) and not p.leq(1, 0)
    assert scott_space(p) == SIERPINSKI


def test_point_closures_and_irreducibles():
    s = SIERPINSKI
    assert point_closures(s) == (1, 3)
    assert irreducible_closed_sets(s) == (1, 3)
    d = discrete(2)
    assert point_closures(d) == (1, 2)
    assert irreducible_closed_sets(d) == (1, 2)


def test_sober_verdicts():
    ok, assignment = is_sober(SIERPINSKI)
    assert ok
    assert dict(assignment) == {1: 0, 3: 1}
    ok, _ = is_sober(discrete(3))
    assert ok
    # non-T0: the doubled point kills the unique generic
    indiscrete = make_space(("x", "y"), (0, 3))
    ok, witness = is_sober(indiscrete)
    assert not ok and witness == 3


def test_compact_saturated_are_nonempty_upsets():
    s = SIERPINSKI
    assert compact_saturated_sets(s) == (2, 3)
    d = discrete(2)
    assert compact_saturated_sets(d) == (1, 2, 3)


def test_subspace_relative_topology():
    sub, incl = subspace(SIERPINSKI, 0b10)
    assert sub.labels == ("1",)
    assert sub.opens == (0, 1)
    assert incl.image(1) == 0b10
    assert incl.preimage(0b11) == 1


def test_continuous_map_validation():
    s = SIERPINSKI
    d = discrete(2)
    # constant maps are always continuous
    ContinuousMap(s, d, (0, 0))
    # swapping the open and closed points pulls an open back to a non-open
    with pytest.raises(CheckFailed):
        ContinuousMap(s, s, (1, 0))
    # identity is a homeomorphism, hence an embedding
    ident = ContinuousMap(s, s, (0, 1))
    assert is_embedding(ident) and is_homeomorphism(ident)
    # injective and continuous, but {p0} is open in the discrete source
    # and its image, the closed point, is not the trace of a target open
    f = ContinuousMap(d, s, (0, 1))
    assert is_injective(f) and not is_embedding(f)


def test_is_embedding_is_the_definition_on_three_point_orders():
    # the definition: injective, and the image of every source open is
    # the trace of a target open on the image
    scotts = [scott_space(p) for p in all_posets(3)]
    injective_non_embeddings = 0
    for source in scotts:
        for target in scotts:
            for f in continuous_maps(source, target):
                traces = {w & f.image_mask for w in target.opens}
                expected = is_injective(f) and all(
                    f.image(u) in traces for u in source.opens
                )
                assert is_embedding(f) == expected, (source, target, f.graph)
                injective_non_embeddings += is_injective(f) and not expected
    assert injective_non_embeddings


def test_subspace_checks_fire_and_a_failure_is_not_cached(monkeypatch):
    # the traces of DIAMOND's up-sets on {m1, m2, top}: 0, {top},
    # {m1, top}, {m2, top} and the whole subspace
    space, mask = scott_space(DIAMOND), 0b1110
    real = spaces.FinSpace
    full = (1 << 3) - 1
    corruptions = {
        # discrete: every trace stays open, but {m1} is no trace
        "relative topology differs from the restricted preorder":
            lambda labels, up: real(labels, tuple(1 << i for i in range(len(up)))),
        # indiscrete: the trace {top} is not open in the subspace
        "map not continuous":
            lambda labels, up: real(labels, (full,) * len(up)),
    }
    subspace.cache_clear()
    for message, corrupt in corruptions.items():
        monkeypatch.setattr(spaces, "FinSpace", corrupt)
        for _ in range(2):
            with pytest.raises(CheckFailed, match=message):
                subspace(space, mask)
        assert subspace.cache_info().currsize == 0
    monkeypatch.undo()
    sub, incl = subspace(space, mask)
    assert sub.opens == (0, 0b100, 0b101, 0b110, 0b111)
    assert incl.open_preimages == sub.open_set
    assert subspace(space, mask)[1] is incl
    with pytest.raises(CheckFailed, match="map not continuous"):
        ContinuousMap(SIERPINSKI, SIERPINSKI, (1, 0))


def test_preimage_ors_the_fibers_of_the_target_points():
    # a non-injective map: both source points go to the top of a chain
    source = discrete(2)
    target = scott_space(validate_poset(("a", "b", "c"), (("a", "b"), ("b", "c"))))
    f = ContinuousMap(source, target, (2, 2))
    assert f.fibers == (0, 0, 0b11)
    assert [f.preimage(m) for m in range(8)] == [0, 0, 0, 0, 3, 3, 3, 3]
    assert f.open_preimages == {0, 0b11}


@pytest.mark.parametrize("graph", [(5,), (2,), (-1,)])
def test_a_graph_that_leaves_the_target_is_refused(graph):
    # an index past the target lies in no target open, so every preimage
    # check would pass; a negative one is no shift count
    source = FinSpace(("a",), (1,))
    target = FinSpace(("x", "y"), (1, 2))
    with pytest.raises(CheckFailed, match="graph leaves the target"):
        ContinuousMap(source, target, graph)


def test_continuous_maps_enumeration():
    s = SIERPINSKI
    maps = list(continuous_maps(s, s))
    # monotone self-maps of the 2-chain
    assert sorted(m.graph for m in maps) == [(0, 0), (0, 1), (1, 1)]


def test_ph_space_laws():
    from orderlab.scott import scott_space

    sigma = scott_space(VEE)
    irr = irreducible_closed_sets(sigma)
    hyper = ph_space(sigma, irr)
    # specialization between members is inclusion
    for i, a in enumerate(hyper.members):
        for j, b in enumerate(hyper.members):
            assert bool(hyper.space.spec_up[i] >> j & 1) == bits.is_subset(a, b)
    # unit is attached and embeds
    assert hyper.eta is not None
    assert is_embedding(hyper.eta_map)
    # diamond of an open meets exactly the members hitting it
    for u in sigma.opens:
        dia = hyper.diamond(u)
        for i, m in enumerate(hyper.members):
            assert bool(dia >> i & 1) == bool(m & u)


def test_the_unit_map_is_built_and_verified_once(monkeypatch):
    sigma = scott_space(DIAMOND)
    hyper = ph_space(sigma, irreducible_closed_sets(sigma))
    first = hyper.eta_map
    # a second read must not rebuild the map and rescan its continuity
    monkeypatch.setattr(spaces.ContinuousMap, "__post_init__",
                        lambda self: pytest.fail("the unit map was rebuilt"))
    assert hyper.eta_map is first
    assert first.graph == hyper.eta


def test_ph_space_rejects_non_irreducible_members():
    d = discrete(2)
    with pytest.raises(FamilyNotIrreducible):
        ph_space(d, (3,))


def _sierpinski_listing(opens):
    """A fresh Sierpinski space whose views list `opens`: the listing is
    put into fresh views before any view is derived, so the open slices
    and the open set are made from it too."""
    views = spaces.PreorderViews(SIERPINSKI.spec_up)
    views.opens = bits.canon(opens)
    space = spaces.FinSpace(SIERPINSKI.labels, SIERPINSKI.spec_up)
    vars(space)["views"] = views
    return space


def _compact_saturated_failure(space):
    compact_saturated_sets.cache_clear()
    try:
        with pytest.raises(CheckFailed) as info:
            compact_saturated_sets(space)
    finally:
        compact_saturated_sets.cache_clear()
    return info.value


def test_compact_saturated_sets_rejects_a_non_saturated_candidate(monkeypatch):
    # {0} is closed in the Sierpinski space: its saturation is the whole
    # space.  The first copy lists {0} among its opens, the candidates,
    # but keeps its true open slices; the second lists {0} consistently,
    # in every view.
    space = spaces.FinSpace(SIERPINSKI.labels, SIERPINSKI.spec_up)
    assert space.open_slices == SIERPINSKI.open_slices
    monkeypatch.setitem(vars(space), "opens", bits.canon(space.opens + (0b01,)))
    consistent = _sierpinski_listing(SIERPINSKI.opens + (0b01,))
    assert 0b01 in consistent.open_set
    for listed in (space, consistent):
        failure = _compact_saturated_failure(listed)
        assert "not an intersection of opens" in str(failure)
        assert failure.witness == 0b01


def test_compact_saturated_sets_rejects_a_listing_without_a_minimal_neighbourhood():
    # {1} is the minimal neighbourhood of the open point 1
    assert SIERPINSKI.spec_up[1] == 0b10
    failure = _compact_saturated_failure(_sierpinski_listing((0, 0b11)))
    assert "minimal neighbourhood is not among the opens" in str(failure)
    assert failure.witness == 0b10


PREORDER_MEMOS = (
    point_closures, irreducible_closed_sets, compact_saturated_sets, kf_sets, wd_status,
)


def _clear_preorder_memos():
    for memo in PREORDER_MEMOS:
        memo.cache_clear()


def test_equal_preorders_share_one_computation_under_any_labels():
    up = scott_space(VEE).spec_up
    first = FinSpace(("p", "q", "r"), up)
    second = FinSpace(("x", "y", "z"), up)
    other = discrete(3)  # same size, another preorder
    assert first.views is second.views is not other.views
    try:
        for memo in PREORDER_MEMOS:
            _clear_preorder_memos()
            shared = memo(first)
            before = memo.cache_info()
            assert memo(second) == shared == memo.__wrapped__(second)
            after = memo.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)
            assert memo(other) == memo.__wrapped__(other) != shared
            assert memo.cache_info().misses == before.misses + 1
    finally:
        _clear_preorder_memos()
