"""Property-based checks of the structural invariants."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from orderlab import bits, spaces
from orderlab.cofinite import (
    CoSet,
    cofin,
    fin,
    random_coset_expr,
    window_oracle,
)
from orderlab.errors import (
    BudgetExceeded,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)
from orderlab.families import (
    _meeting_by_lower_covers,
    _meeting_by_minimal_points,
    _minimal_meeting,
    kf_sets,
    wd_status,
)
from orderlab.generate import derive_seed, generate_poset
from orderlab.reflections import all_posets, sobrification
from orderlab.posets import (
    _algebraicity_tables,
    bounded_complete_oracle,
    directed_subsets,
    down_sets,
    is_algebraic_and_dcpo,
    is_bounded_complete,
    is_directed,
    supremum,
    up_sets,
    validate_poset,
)
from orderlab.report import analyze_poset, canonical_json
from orderlab.scott import scott_space
from orderlab.spaces import (
    FinSpace,
    _preorder_up_sets,
    compact_saturated_sets,
    irreducible_closed_sets,
    make_space,
    ph_space,
    point_closures,
    preorder_views,
)

from test_posets import bounded_complete_by_loops
from test_spaces import PREORDER_MEMOS, _clear_preorder_memos

SMALL = settings(max_examples=50, deadline=None)


@st.composite
def posets(draw, max_n=5):
    """Random partial order: a DAG on index-ordered pairs, closed by the
    validating constructor."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = tuple(f"e{i}" for i in range(n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((labels[i], labels[j]))
    return validate_poset(labels, tuple(pairs))


@st.composite
def preorders(draw, max_n=5):
    """Up-masks of a random preorder (T0 or not): random pairs, closed
    reflexively and transitively."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    up = [1 << i for i in range(n)]
    for _ in range(n):
        for a, b in pairs:
            up[a] |= up[b]
    return tuple(up)


def brute_up_sets(up):
    return bits.canon(m for m in range(1 << len(up))
                      if all(not m >> a & 1 or up[a] & ~m == 0 for a in range(len(up))))


def alexandrov_spaces():
    """The space of up-sets of a random preorder, with the up-sets listed
    by brute force and validated by `make_space`."""
    return preorders().map(
        lambda up: make_space(tuple(f"e{i}" for i in range(len(up))), brute_up_sets(up))
    )


def finite_spaces():
    return st.one_of(posets().map(scott_space), alexandrov_spaces())


@st.composite
def families(draw, max_n=4):
    """Labels and a list of masks on them, holding the empty and full set
    about half the time."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    full = (1 << n) - 1
    masks = draw(st.lists(st.integers(0, full), max_size=1 << n))
    if draw(st.booleans()):
        masks += [0, full]
    return tuple(f"e{i}" for i in range(n)), masks


@st.composite
def cosets(draw):
    cofinite = draw(st.booleans())
    support = tuple(sorted(draw(st.sets(st.integers(0, 9), max_size=4))))
    return CoSet(cofinite, support)


@given(posets())
@SMALL
def test_closure_operators(poset):
    for mask in range(1 << poset.n):
        up = poset.up_closure(mask)
        down = poset.down_closure(mask)
        assert bits.is_subset(mask, up) and bits.is_subset(mask, down)
        assert poset.up_closure(up) == up
        assert poset.down_closure(down) == down


@given(posets())
@SMALL
def test_bounded_complete_routes_agree(poset):
    oracle = bounded_complete_oracle(poset)
    assert is_bounded_complete(poset)[0] == oracle[0]
    assert oracle == bounded_complete_by_loops(poset)


@given(posets())
@SMALL
def test_up_down_duality(poset):
    full = poset.full_mask
    assert set(down_sets(poset)) == {full ^ u for u in up_sets(poset)}


@given(posets())
@SMALL
def test_scott_space_laws(poset):
    space = scott_space(poset)
    assert space.opens == up_sets(poset)
    for mask in range(1 << space.n):
        c = space.closure(mask)
        assert bits.is_subset(mask, c)
        assert space.closure(c) == c
        s = space.saturation(mask)
        assert bits.is_subset(mask, s)
        assert space.saturation(s) == s


@given(posets())
@SMALL
def test_family_sandwich(poset):
    space = scott_space(poset)
    sc = set(point_closures(space))
    kf = set(kf_sets(space))
    irr = set(irreducible_closed_sets(space))
    assert sc <= kf <= irr
    assert set(wd_status(space)) == kf == irr


@given(finite_spaces())
@SMALL
def test_saturation_is_the_intersection_of_open_supersets(space):
    for mask in range(1 << space.n):
        expected = space.full_mask
        for u in space.opens:
            if bits.is_subset(mask, u):
                expected &= u
        assert space.saturation(mask) == expected


@given(preorders())
@SMALL
def test_space_views_derive_from_the_preorder(up):
    space = FinSpace(tuple(f"e{i}" for i in range(len(up))), up)
    assert space.opens == brute_up_sets(up)
    assert space.closed == bits.canon(space.full_mask ^ u for u in space.opens)
    for x in range(space.n):
        assert space.spec_down[x] == bits.mask_of(
            y for y in range(space.n) if up[y] >> x & 1
        )
        nbhd = space.full_mask
        for u in space.opens:
            if u >> x & 1:
                nbhd &= u
        assert nbhd == up[x]


def up_set_leaves(up):
    """The up-set enumerator's leaves, as reached, before `bits.canon`."""
    leaves = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bits, "canon", lambda family: leaves.extend(family) or ())
        _preorder_up_sets(up)
    return sorted(leaves)


def test_up_set_enumerator_reaches_each_up_set_once_on_a_chain():
    # 2-point chain with the top at index 0: leaving out 0 must leave out 1 too
    assert up_set_leaves((0b01, 0b11)) == [0b00, 0b01, 0b11]


@given(preorders())
@SMALL
def test_up_set_enumerator_reaches_each_up_set_once(up):
    assert up_set_leaves(up) == sorted(brute_up_sets(up))


def test_up_set_enumeration_stops_one_leaf_past_the_budget(monkeypatch):
    reached = []
    leaves = spaces._up_set_leaves

    def counted(up):
        for leaf in leaves(up):
            reached.append(leaf)
            yield leaf

    monkeypatch.setattr(spaces, "_up_set_leaves", counted)
    monkeypatch.setattr(spaces, "MAX_UP_SETS", 5)
    with pytest.raises(BudgetExceeded, match="more than 5 open sets"):
        _preorder_up_sets((0b0001, 0b0010, 0b0100, 0b1000))  # 16 up-sets
    assert len(reached) == 6
    reached.clear()
    chain = (0b1111, 0b1110, 0b1100, 0b1000)  # 5 up-sets: at the budget
    assert _preorder_up_sets(chain) == (0, 0b1000, 0b1100, 0b1110, 0b1111)
    assert len(reached) == 5


@given(finite_spaces())
@SMALL
def test_single_set_scan_and_meeting_family_on_any_finite_space(space):
    # finite_spaces() yields non-T0 spaces too: minimal points are taken
    # up to the preorder, and every finite space has KF = Sc.  Both
    # batched routes are read back per compact set and compared with the
    # per-set brute-force scan.
    for route in (_meeting_by_minimal_points, _meeting_by_lower_covers):
        rows = route(space)
        assert len(rows) == len(space.closed)
        for i, k in enumerate(compact_saturated_sets(space)):
            per_set = tuple(c for c, row in zip(space.closed, rows) if row >> i & 1)
            assert per_set == _minimal_meeting(space, (k,))
    assert kf_sets(space) == point_closures(space)


@given(preorders(), preorders())
@SMALL
def test_preorder_memos_equal_the_uncached_functions(up_a, up_b):
    # each space carries labels no other call has used; a memo that
    # mixed up two preorders would hand one space the other's family
    a = FinSpace(tuple(f"a{i}" for i in range(len(up_a))), up_a)
    b = FinSpace(tuple(f"b{i}" for i in range(len(up_b))), up_b)
    for memo in (point_closures, irreducible_closed_sets, compact_saturated_sets,
                 kf_sets, wd_status):
        for space in (a, b, a):
            assert memo(space) == memo.__wrapped__(space)
    assert (a.views is b.views) == (up_a == up_b)


def _direct(memo, space):
    """The memoized function computed on `space` itself: with no value
    memoized and no copy registration, every family it reads is computed
    on `space` too."""
    views = space.views
    saved, views.copy_of = views.copy_of, None
    _clear_preorder_memos()
    try:
        return memo.__wrapped__(space)
    finally:
        views.copy_of = saved
        _clear_preorder_memos()


def _transport_matches(hyper) -> bool:
    """Assert that every preorder memo on the hyperspace, computed from an
    empty cache (so transported when it is a registered copy), equals the
    direct computation; return whether it is a registered copy."""
    space = hyper.space
    _clear_preorder_memos()
    values = [memo(space) for memo in PREORDER_MEMOS]
    for memo, value in zip(PREORDER_MEMOS, values):
        assert value == _direct(memo, space), memo.__name__
    return space.views.copy_of is not None


def _sobrification_pair(poset):
    """The sobrification of the poset's Scott space and its own
    sobrification."""
    once = sobrification(scott_space(poset))
    return once, sobrification(once.space)


def test_transported_families_equal_the_direct_computation_on_four_points():
    registered = 0
    for poset in all_posets(4):
        once, twice = _sobrification_pair(poset)
        registered += _transport_matches(once)
        _transport_matches(twice)
    # the check is not vacuous: some hyperspace lists its members in
    # another order than its base's points
    assert registered


@given(posets())
@SMALL
def test_transported_families_equal_the_direct_computation(poset):
    for hyper in _sobrification_pair(poset):
        _transport_matches(hyper)


def test_a_hyperspace_on_its_bases_preorder_is_not_registered():
    # the closures of a chain list in the chain's own order: registering
    # the preorder as a copy of itself would send each miss round again.
    # Fresh caches, so no other base's registration is read.
    preorder_views.cache_clear()
    ph_space.cache_clear()
    chain = validate_poset(("a", "b", "c"), (("a", "b"), ("b", "c")))
    sigma = scott_space(chain)
    hyper = sobrification(sigma)
    assert hyper.space.spec_up == sigma.spec_up
    assert not _transport_matches(hyper)


@given(posets())
@SMALL
def test_directed_subsets_are_exactly_the_directed_sets(poset):
    listed = [d for d, _ in directed_subsets(poset)]
    assert len(set(listed)) == len(listed)
    assert set(listed) == {m for m in range(1, 1 << poset.n) if is_directed(poset, m)}


@given(finite_spaces())
@SMALL
def test_minimal_meeting_is_the_definitional_scan(space):
    qx = compact_saturated_sets(space)
    for members in [(k,) for k in qx] + list(itertools.combinations(qx, 2)):
        meeting = [c for c in space.closed if all(c & k for k in members)]
        expected = bits.canon(
            c for c in meeting
            if not any(d != c and bits.is_subset(d, c) for d in meeting)
        )
        assert _minimal_meeting(space, members) == expected


def _lowest_bit_loop(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@given(st.one_of(
    # masks of 0 to 64 bits: every point mask, read through the byte tables
    st.integers(0, 64).flatmap(lambda width: st.integers(0, (1 << width) - 1)),
    # masks of 65 to 500 bits, as wide as the family-index masks a report
    # makes, about half their bits set
    st.integers(65, 500).flatmap(lambda width: st.integers(1 << width - 1, (1 << width) - 1)),
    # sparse masks well past 64 bits, with or without a dense low part
    st.tuples(st.sets(st.integers(0, 63)),
              st.sets(st.integers(64, 3000), min_size=1, max_size=20))
    .map(lambda parts: bits.mask_of(parts[0] | parts[1])),
))
@example(0)
@example((1 << 64) - 1)
@example(1 << 64)
@settings(max_examples=300, deadline=None)
def test_indices_of_is_the_lowest_bit_loop(mask):
    out = bits.indices_of(mask)
    assert type(out) is tuple
    assert out == _lowest_bit_loop(mask)


@given(posets())
@SMALL
def test_is_directed_is_the_pairwise_definition(poset):
    for mask in range(1 << poset.n):
        members = bits.indices_of(mask)
        expected = bool(members) and all(
            any(poset.leq(a, c) and poset.leq(b, c) for c in members)
            for a in members
            for b in members
        )
        assert is_directed(poset, mask) == expected


@given(posets(max_n=6))
@SMALL
def test_directed_table_is_the_per_set_check(poset):
    table = bits.directed_table(poset.up, poset.n)
    assert table >> (1 << poset.n) == 0
    for mask in range(1 << poset.n):
        assert bool(table >> mask & 1) == is_directed(poset, mask)


def _algebraicity_loop(poset):
    """The per-subset reference for `_algebraicity_tables`: the verdict,
    and the compact elements (None when a directed set has no supremum)."""
    directed = []
    for s in range(1, 1 << poset.n):
        if is_directed(poset, s):
            sup = supremum(poset, s)
            if sup is None:
                return False, None
            directed.append((s, sup))
    compact = 0
    for k in range(poset.n):
        if all(d & poset.up[k] for d, sup in directed if poset.leq(k, sup)):
            compact |= 1 << k
    for x in range(poset.n):
        kx = compact & poset.down[x]
        if not is_directed(poset, kx) or supremum(poset, kx) != x:
            return False, compact
    return True, compact


def _algebraicity_kernel_matches(poset):
    directed, lub, compact = _algebraicity_tables(poset)
    assert (is_algebraic_and_dcpo(poset), compact) == _algebraicity_loop(poset)
    for mask in range(1 << poset.n):
        assert bool(directed >> mask & 1) == is_directed(poset, mask)
        sup = supremum(poset, mask)
        assert [u for u in range(poset.n) if lub[u] >> mask & 1] == (
            [] if sup is None else [sup])


def test_algebraicity_tables_are_the_loop_on_every_order_on_four_points():
    for n in range(5):
        for poset in all_posets(n):
            _algebraicity_kernel_matches(poset)


@given(posets(max_n=6))
@SMALL
def test_algebraicity_tables_are_the_loop(poset):
    _algebraicity_kernel_matches(poset)


@given(posets(max_n=4))
@SMALL
def test_hyperspace_duality(poset):
    space = scott_space(poset)
    hyper = ph_space(space, irreducible_closed_sets(space))
    all_members = (1 << len(hyper.members)) - 1
    for c in space.closed:
        box = bits.mask_of(
            i for i, m in enumerate(hyper.members) if bits.is_subset(m, c)
        )
        assert hyper.diamond(space.full_mask ^ c) == all_members ^ box


@given(families())
@settings(max_examples=300, deadline=None)
def test_make_space_accepts_exactly_the_topologies(family):
    labels, masks = family
    fam = bits.canon(masks)
    members = set(fam)
    first_failure = None
    for a, b in itertools.combinations(fam, 2):
        if a | b not in members:
            first_failure = (NotClosedUnderUnion, a, b)
            break
        if a & b not in members:
            first_failure = (NotClosedUnderIntersection, a, b)
            break
    if not {0, (1 << len(labels)) - 1} <= members:
        with pytest.raises(MissingEmptyOrFull):
            make_space(labels, masks)
    elif first_failure is None:
        assert make_space(labels, masks).opens == fam
    else:
        exc, a, b = first_failure
        with pytest.raises((NotClosedUnderUnion, NotClosedUnderIntersection)) as info:
            make_space(labels, masks)
        assert type(info.value) is exc
        named = tuple(tuple(labels[i] for i in bits.indices_of(m)) for m in (a, b))
        assert info.value.pair == named


@given(cosets(), cosets())
@SMALL
def test_coset_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().inter(b.complement())
    assert a.inter(b).complement() == a.complement().union(b.complement())
    assert a.complement().complement() == a
    assert a.union(b) == b.union(a)
    assert a.inter(b) == b.inter(a)
    assert a.union(a.inter(b)) == a
    assert a.inter(a.union(b)) == a


@given(cosets(), cosets(), cosets())
@SMALL
def test_coset_associativity_and_order(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))
    assert a.inter(b).inter(c) == a.inter(b.inter(c))
    assert a.is_subset(a.union(b))
    assert a.inter(b).is_subset(a)
    if a.is_subset(b) and b.is_subset(a):
        assert a == b


@given(cosets())
@SMALL
def test_coset_membership_on_a_window(s):
    explicit = {n for n in range(12) if s.member(n)}
    if s.cofinite:
        assert explicit == set(range(12)) - set(s.support)
    else:
        assert explicit == set(s.support)
    assert fin(*explicit).is_subset(s) or not explicit


@given(st.integers(0, 2**32), st.integers(0, 2))
@SMALL
def test_window_agreement_random_expressions(seed, depth):
    rng = random.Random(seed)
    expr = random_coset_expr(rng, depth)
    assert window_oracle(expr, 16)["agree"]


@given(st.integers(0, 2**63 - 1))
@SMALL
def test_seed_derivation_injective_per_trial(seed):
    outs = [derive_seed(seed, i) for i in range(16)]
    assert len(set(outs)) == 16
    assert all(0 <= o < 1 << 64 for o in outs)


@given(st.integers(0, 2**32), st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_generated_posets_are_bounded_complete(seed, max_size):
    poset = generate_poset(seed, max_size)
    assert poset.n <= max_size
    assert is_bounded_complete(poset)[0]
    assert poset == generate_poset(seed, max_size)


@given(st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_report_bytes_are_deterministic(seed):
    poset = generate_poset(seed, 5)
    first = canonical_json(analyze_poset(poset, ("EQ0", "pair")))
    second = canonical_json(analyze_poset(poset, ("EQ0", "pair")))
    assert first == second


def test_cofin_fin_are_canonical_constructors():
    assert fin(3, 1, 3) == CoSet(False, (1, 3))
    assert cofin(2, 2, 0) == CoSet(True, (0, 2))
