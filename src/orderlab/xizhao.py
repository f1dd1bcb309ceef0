"""Pair model of a bounded-complete algebraic poset over its maximal points.

The model's carrier is every pair (x, e) with e maximal and x <= e, written
"x@e".  The order puts (x, e) below (y, d) when the pairs share their
maximal coordinate and x <= y, or when (y, d) is the top of a slice that x
sits under (y = d and x <= d).  Its maximal elements are exactly the pairs
(e, e), the slice interiors partition the rest, and every directed subset
either meets the maximal pairs or lives inside one slice with directed
base coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import bits
from .errors import (
    BudgetExceeded,
    CheckFailed,
    InputError,
    NotAlgebraic,
    NotBoundedComplete,
    NotT1,
    NotUpperSet,
    PreconditionViolated,
)
from .posets import (
    FinPoset,
    induced_subposet,
    is_algebraic_and_dcpo,
    is_bounded_complete,
    is_directed,
    maximal_elements,
)
from .scott import max_point_space, scott_space
from .spaces import ContinuousMap, FinSpace, is_homeomorphism


@dataclass(frozen=True)
class XiZhaoPoset:
    """One pair model, and the only builder of its Scott space.

    `sigma` (the Scott space of `poset`), `max_space` (its maximal-point
    subspace with the inclusion) and `base_max_space` (the same subspace
    of the base's Scott space) are built once, on first use; every runner
    reads them here instead of calling `scott_space` itself.
    """

    base: FinPoset
    poset: FinPoset
    pairs: tuple[tuple[int, int], ...]

    @cached_property
    def sigma(self) -> FinSpace:
        return scott_space(self.poset)

    @cached_property
    def max_space(self) -> tuple[FinSpace, ContinuousMap]:
        return max_point_space(self.sigma)

    @cached_property
    def base_max_space(self) -> tuple[FinSpace, ContinuousMap]:
        return max_point_space(scott_space(self.base))

    @cached_property
    def max_mask(self) -> int:
        m = 0
        for i, (x, e) in enumerate(self.pairs):
            if x == e:
                m |= 1 << i
        return m

    @cached_property
    def slice_masks(self) -> tuple[tuple[int, int], ...]:
        """(base index of e, mask of the full slice including its top)."""
        by_e: dict[int, int] = {}
        for i, (_, e) in enumerate(self.pairs):
            by_e[e] = by_e.get(e, 0) | 1 << i
        return tuple(sorted(by_e.items()))

    def slice_of(self, e_base: int) -> int:
        for e, m in self.slice_masks:
            if e == e_base:
                return m
        raise KeyError(e_base)

    @cached_property
    def _tops(self) -> dict[int, int]:
        """Base index of each maximal element e -> index of the pair (e, e)."""
        return {e: i for i, (x, e) in enumerate(self.pairs) if x == e}

    def top_index(self, e_base: int) -> int:
        return self._tops[e_base]

    @property
    def nonmax_mask(self) -> int:
        return self.poset.full_mask & ~self.max_mask


def _dichotomy_holds(model: XiZhaoPoset, d_mask: int) -> bool:
    """A directed set meets the maximal pairs, or lies inside one slice
    and has directed base coordinates."""
    if d_mask & model.max_mask:
        return True
    for _, smask in model.slice_masks:
        if bits.is_subset(d_mask, smask):
            xs = bits.mask_of(model.pairs[i][0] for i in bits.indices_of(d_mask))
            return is_directed(model.base, xs)
    return False


@lru_cache(maxsize=1024)
def xizhao_model(base: FinPoset) -> XiZhaoPoset:
    """Build the pair model of a bounded-complete algebraic poset.

    Pair labels are "x@e", so a base label containing "@" is refused.
    Asserted structure: the maximal pairs are exactly (e, e); the slice
    interiors partition the non-maximal part; and, on models of up to 10
    pairs, every directed subset (found by scanning all 2^n subsets with
    `is_directed`) meets the maximal pairs or lies inside one slice with
    directed base coordinates.  Beyond 10 pairs the dichotomy is not
    scanned; only the first two are asserted.
    """
    for label in base.labels:
        if "@" in label:
            raise InputError(
                f"label {label!r} contains '@', which the pair labels x@e reserve"
            )
    ok, witness = is_bounded_complete(base)
    if not ok:
        raise NotBoundedComplete(base.labels_of_mask(witness))
    if not is_algebraic_and_dcpo(base):
        raise NotAlgebraic()
    max_base = bits.indices_of(maximal_elements(base))
    pairs = []
    for e in max_base:
        for x in bits.indices_of(base.down[e]):
            pairs.append((x, e))
    pairs = tuple(sorted(pairs, key=lambda p: (p[1], p[0])))
    labels = tuple(f"{base.labels[x]}@{base.labels[e]}" for x, e in pairs)
    n = len(pairs)
    bits.check_carrier(n)
    up = []
    for i, (x, e) in enumerate(pairs):
        m = 0
        for j, (y, d) in enumerate(pairs):
            if (e == d and base.leq(x, y)) or (y == d and base.leq(x, d)):
                m |= 1 << j
        up.append(m)
    model = XiZhaoPoset(base, FinPoset(labels, tuple(up)), pairs)
    expected_max = bits.mask_of(
        model.pairs.index((e, e)) for e in max_base
    )
    if maximal_elements(model.poset) != expected_max or expected_max != model.max_mask:
        raise CheckFailed("maximal pairs are not exactly the (e, e) diagonal")
    covered = 0
    for _, smask in model.slice_masks:
        interior = smask & model.nonmax_mask
        if covered & interior:
            raise CheckFailed("slice interiors overlap")
        covered |= interior
    if covered != model.nonmax_mask:
        raise CheckFailed("slice interiors do not cover the non-maximal part")
    if n <= 10:
        for d in range(1, 1 << n):
            if is_directed(model.poset, d) and not _dichotomy_holds(model, d):
                raise CheckFailed("directed-set dichotomy failed", d)
    return model


def e_set(model: XiZhaoPoset, a_mask: int) -> int:
    """Maximal pairs whose slice meets the non-maximal part of an upper set.

    Computed twice: from the slice display and by scanning the members of
    A \\ Max; the two must agree.  Returns a mask over the model's poset.
    """
    poset = model.poset
    if not poset.is_up_set(a_mask):
        raise NotUpperSet(poset.labels_of_mask(poset.up_closure(a_mask) & ~a_mask))
    nonmax = a_mask & model.nonmax_mask
    display = 0
    for e, smask in model.slice_masks:
        if nonmax & smask:
            display |= 1 << model.top_index(e)
    scan = 0
    for i in bits.indices_of(nonmax):
        scan |= 1 << model.top_index(model.pairs[i][1])
    if display != scan:
        raise CheckFailed("E-set display and scan disagree", a_mask)
    if display & ~model.max_mask:
        raise CheckFailed("E-set escaped the maximal part")
    return display


def scott_closed_slices(model: XiZhaoPoset, a_mask: int, e_mask: int) -> int:
    """Union of slicewise pieces of a closed set avoiding the tops in E.

    Requires A Scott closed, E a set of maximal pairs disjoint from A.
    The returned union is checked to be Scott closed in the subspace on
    the non-maximal part.
    """
    poset = model.poset
    if not poset.is_down_set(a_mask):
        raise PreconditionViolated("A is not Scott closed in the pair model")
    if e_mask & ~model.max_mask:
        raise PreconditionViolated("E contains non-maximal pairs")
    if e_mask & a_mask:
        raise PreconditionViolated("E meets A")
    union = 0
    for e, smask in model.slice_masks:
        if e_mask >> model.top_index(e) & 1:
            union |= a_mask & smask
    sub, keep = induced_subposet(poset, model.nonmax_mask)
    pos = {old: new for new, old in enumerate(keep)}
    rel = bits.mask_of(pos[i] for i in bits.indices_of(union))
    if not sub.is_down_set(rel):
        raise CheckFailed("slicewise union is not closed in the non-maximal part")
    return union


def max_homeo_check(model: XiZhaoPoset) -> ContinuousMap:
    """Homeomorphism (e,e) -> e between the two maximal-point spaces."""
    model_max, _ = model.max_space
    base_max, _ = model.base_max_space
    graph = []
    for lbl in model_max.labels:
        x, e = lbl.split("@")
        if x != e:
            raise CheckFailed("non-diagonal label among maximal pairs", lbl)
        graph.append(base_max.index(e))
    f = ContinuousMap(model_max, base_max, tuple(graph))
    if not is_homeomorphism(f):
        raise CheckFailed("maximal-point spaces are not homeomorphic")
    return f


@dataclass(frozen=True)
class ZhaoFilterModel:
    space: FinSpace
    poset: FinPoset
    filters: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]


def zhao_filter_model(space: FinSpace, budget: int = 1 << 16) -> ZhaoFilterModel:
    """Filters of the open lattice with nonempty intersection, by inclusion.

    Only T1 inputs are accepted: every point is only below itself, so the
    space is discrete and has 2^n opens.  Filters are found by exhaustive
    subfamily scan over the open lattice, so the budget caps 2^(number of
    opens), checked before the opens are listed.
    """
    for x in range(space.n):
        if space.spec_down[x] != 1 << x:
            raise NotT1(space.labels[x])
    k = 1 << space.n
    if k >= budget.bit_length():  # 2^k > budget, without building 2^k
        raise BudgetExceeded(
            f"open lattice has {k} members; 2^{k} subfamilies exceed {budget}"
        )
    opens = space.opens
    filters = []
    for sub in range(1, 1 << k):
        fam = [opens[i] for i in range(k) if sub >> i & 1]
        inter = space.full_mask
        for u in fam:
            inter &= u
        if not inter:
            continue
        fam_set = set(fam)
        if any(a & b not in fam_set for a in fam for b in fam):
            continue
        if any(
            v not in fam_set
            for u in fam
            for v in opens
            if bits.is_subset(u, v)
        ):
            continue
        filters.append((tuple(sorted(fam, key=bits.subset_key)), inter))
    filters.sort(key=lambda fg: bits.subset_key(fg[1]))
    gens = tuple(g for _, g in filters)
    fams = tuple(f for f, _ in filters)
    for fam, g in filters:
        principal = tuple(
            sorted((u for u in opens if bits.is_subset(g, u)), key=bits.subset_key)
        )
        if fam != principal:
            raise CheckFailed("filter is not principal at its intersection", fam)
    labels = tuple(
        "F{" + ",".join(space.labels_of_mask(g)) + "}" for g in gens
    )
    n = len(filters)
    bits.check_carrier(n)
    up = []
    for i in range(n):
        m = 0
        for j in range(n):
            if set(fams[i]) <= set(fams[j]):
                m |= 1 << j
        up.append(m)
    for i in range(n):
        for j in range(n):
            by_family = bool(up[i] >> j & 1)
            by_generator = bits.is_subset(gens[j], gens[i])
            if by_family != by_generator:
                raise CheckFailed("filter order differs from reverse inclusion")
    poset = FinPoset(labels, tuple(up))
    ok, witness = is_bounded_complete(poset)
    if not ok:
        raise CheckFailed("filter model is not bounded complete", witness)
    if not is_algebraic_and_dcpo(poset):
        raise CheckFailed("filter model is not an algebraic dcpo")
    model_max, _ = max_point_space(scott_space(poset))
    singleton_positions = [
        i for i, g in enumerate(gens) if g.bit_count() == 1
    ]
    if bits.mask_of(singleton_positions) != maximal_elements(poset):
        raise CheckFailed("maximal filters are not the singleton-generated ones")
    graph = []
    for lbl in model_max.labels:
        inner = lbl[2:-1]
        graph.append(space.index(inner))
    f = ContinuousMap(model_max, space, tuple(graph))
    if not is_homeomorphism(f):
        raise CheckFailed("maximal filters are not homeomorphic to the input")
    return ZhaoFilterModel(space, poset, fams, gens)
