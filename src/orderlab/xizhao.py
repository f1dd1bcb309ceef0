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
    CheckFailed,
    InputError,
    NotAlgebraic,
    NotBoundedComplete,
    NotUpperSet,
)
from .posets import (
    FinPoset,
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
    and has directed base coordinates (the per-set reference check)."""
    if d_mask & model.max_mask:
        return True
    for _, smask in model.slice_masks:
        if bits.is_subset(d_mask, smask):
            xs = bits.mask_of(model.pairs[i][0] for i in bits.indices_of(d_mask))
            return is_directed(model.base, xs)
    return False


def _dichotomy_failures(model: XiZhaoPoset) -> int:
    """Truth table over the model's subsets (`bits.subset_columns`) of
    the directed sets that break the dichotomy:
    ``directed & ~(meets_max | inside_a_slice & coords_directed)``.

    Inside one slice the pairs have distinct base coordinates, so the
    coordinates of a set are directed exactly when the set is directed
    for the slice's own order, x@e <= y@e when x <= y in the base
    (`coords_up`).
    """
    n = model.poset.n
    base, pairs = model.base, model.pairs
    every = (1 << (1 << n)) - 1
    coords_up = tuple(
        bits.mask_of(j for j, (y, d) in enumerate(pairs) if d == e and base.leq(x, y))
        for x, e in pairs
    )
    inside_a_slice = 0
    for _, smask in model.slice_masks:
        inside_a_slice |= every & ~bits.meets_table(model.poset.full_mask & ~smask, n)
    holds = (bits.meets_table(model.max_mask, n)
             | inside_a_slice & bits.directed_table(coords_up, n))
    return bits.directed_table(model.poset.up, n) & ~holds


def _dichotomy_scan(model: XiZhaoPoset) -> None:
    """Raise for the first directed subset of the model, in increasing
    mask order, that breaks the dichotomy; every subset is covered, as
    one bit of `_dichotomy_failures`.  The set raised is confirmed by the
    per-set `_dichotomy_holds` first."""
    failing = _dichotomy_failures(model)
    if failing:
        d = (failing & -failing).bit_length() - 1
        if not is_directed(model.poset, d) or _dichotomy_holds(model, d):
            raise CheckFailed("dichotomy table disagrees with the per-set check", d)
        raise CheckFailed("directed-set dichotomy failed", d)


@lru_cache(maxsize=1024)
def xizhao_model(base: FinPoset) -> XiZhaoPoset:
    """Build the pair model of a bounded-complete algebraic poset.

    Pair labels are "x@e", so a base label containing "@" is refused.
    Asserted structure: the maximal elements of the model are exactly
    the pairs (e, e); and, on models of up to 10 pairs, every directed
    subset meets the maximal pairs or lies inside one slice with directed
    base coordinates (`_dichotomy_scan`, which covers all 2^n subsets as
    bits of truth tables).  Beyond 10 pairs the dichotomy is not scanned;
    only the maximal pairs are asserted.  The slices partition the pairs
    by construction (`slice_masks` groups them by e), so that is not
    asserted.
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
    if maximal_elements(model.poset) != model.max_mask:
        raise CheckFailed("maximal pairs are not exactly the (e, e) diagonal")
    if n <= 10:
        _dichotomy_scan(model)
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
    return display


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
