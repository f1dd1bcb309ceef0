"""Closed-set families between point closures and irreducible closed sets.

Three families drive the classifiers: the point closures, the sets
obtainable as minimal closed sets meeting every member of a filtered
compact-saturated family, and the irreducible closed sets.  The
image-closure family sits between the middle one and the irreducible
family; it is never evaluated from its definition (which quantifies over
all continuous maps into well-filtered spaces) but squeezed: on a finite
space the two bounds coincide, so the family is their common value, and
a gap between them raises.

`family_members` is the one mapping from a kind name (Sc, Irr, KF, WD) to
its family on a finite space; every runner that names a family by kind
goes through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import bits
from .errors import CheckFailed, InvalidFamily, PreconditionViolated
from .spaces import (
    ContinuousMap,
    FinSpace,
    compact_saturated_sets,
    irreducible_closed_sets,
    point_closures,
)


@dataclass(frozen=True)
class ClosedFamily:
    space: FinSpace
    members: tuple[int, ...]
    role: str

    def starred(self) -> "ClosedFamily":
        """Drop the whole carrier from the family (the proper version)."""
        full = self.space.full_mask
        return ClosedFamily(
            self.space,
            tuple(m for m in self.members if m != full),
            self.role + "*",
        )


# One membership set per compact saturated family, keyed by the cached
# tuple that `compact_saturated_sets` returns for its space.
_membership_set = lru_cache(maxsize=4096)(frozenset)


@dataclass(frozen=True)
class FilteredFamily:
    """Nonempty family of compact saturated sets, filtered under inclusion."""

    space: FinSpace
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise InvalidFamily("family is empty")
        qx = _membership_set(compact_saturated_sets(self.space))
        for m in self.members:
            if m not in qx:
                raise InvalidFamily(
                    "member is not a nonempty compact saturated set",
                    self.space.labels_of_mask(m),
                )
        for a in self.members:
            for b in self.members:
                if not any(
                    bits.is_subset(c, a) and bits.is_subset(c, b)
                    for c in self.members
                ):
                    raise InvalidFamily(
                        "family is not filtered",
                        (self.space.labels_of_mask(a), self.space.labels_of_mask(b)),
                    )

    def least_member(self) -> int:
        for m in self.members:
            if all(bits.is_subset(m, other) for other in self.members):
                return m
        raise CheckFailed("finite filtered family has no least member", self.members)


def _minimal_meeting(space: FinSpace, members) -> tuple[int, ...]:
    """Inclusion-minimal closed sets meeting every member of a nonempty
    family, in canonical order (definitional scan over the closed family).

    The OR of the closed slices over a member's points selects the closed
    sets meeting that member, and the AND over the members selects those
    meeting them all (the empty closed set meets nothing).  A selected set
    is kept when none of its strict subsets is selected.
    """
    slices = space.closed_slices
    selected = (1 << len(space.closed)) - 1
    for k in members:
        meets = 0
        for p in bits.indices_of(k):
            meets |= slices[p]
        selected &= meets
    strict = space.closed_strict_subsets
    return tuple(
        space.closed[j] for j in bits.indices_of(selected) if not strict[j] & selected
    )


def minimal_closed_meeting(space: FinSpace, family: FilteredFamily) -> tuple[int, ...]:
    """Minimal closed sets meeting every member of a filtered family.

    Two routes are computed and compared: the definitional scan over the
    whole closed family, and the reduction to the least member (a
    singleton family is cofinal in any finite filtered family).
    """
    full = _minimal_meeting(space, family.members)
    least = family.least_member()
    reduced = _minimal_meeting(space, (least,))
    if full != reduced:
        raise CheckFailed("least-member reduction disagrees with the full scan")
    return full


def _m_single_fast(space: FinSpace, k_mask: int) -> tuple[int, ...]:
    """Minimal closed sets meeting one up-set K, by the point-closure law.

    Any closed set meeting K at a point contains that point's closure,
    which still meets K; so the minimal ones are minimal point closures
    of minimal points of K.  Minimal is taken up to the preorder: no point
    of K lies strictly below x, though points equivalent to x may (on a
    non-T0 space they share its closure).  This relies only on closed
    sets being specialization down-sets.
    """
    candidates = []
    for x in bits.indices_of(k_mask):
        if not space.spec_down[x] & k_mask & ~space.spec_up[x]:
            candidates.append(space.spec_down[x])
    return bits.minimal_members(candidates)


def rudin_refine(space: FinSpace, family: FilteredFamily, c_mask: int) -> int:
    """Shrink a closed set meeting every member to a minimal such subset.

    Greedy descent through the closed family in canonical order.  The
    result is verified irreducible and a member of the minimal family.
    """
    if c_mask not in space.closed_set:
        raise InvalidFamily("refinement start is not closed",
                            space.labels_of_mask(c_mask))
    if not all(c_mask & k for k in family.members):
        raise InvalidFamily("refinement start misses a family member")
    current = c_mask
    while True:
        step = None
        for c in space.closed:
            if c != current and bits.is_subset(c, current) and c and all(
                c & k for k in family.members
            ):
                step = c
                break
        if step is None:
            break
        current = step
    if current not in set(minimal_closed_meeting(space, family)):
        raise CheckFailed("refined set is not minimal-meeting", current)
    if current not in set(irreducible_closed_sets(space)):
        raise CheckFailed("refined set is not irreducible", current)
    return current


@lru_cache(maxsize=4096)
def kf_sets(space: FinSpace) -> tuple[int, ...]:
    """Closed sets arising as minimal sets meeting a filtered family.

    The production scan runs over single compact saturated sets (the
    least-member reduction makes that exhaustive); a definitional sample
    and a bounded two-member scan are run alongside and must agree.  The
    point-closure/irreducible sandwich is asserted on the result.
    """
    qx = compact_saturated_sets(space)
    out: set[int] = set()
    per_k: dict[int, tuple[int, ...]] = {}
    for k in qx:
        m = _m_single_fast(space, k)
        per_k[k] = m
        out.update(m)
    sample = qx if len(qx) * len(space.closed) <= 20_000 else qx[:24] + qx[-24:]
    for k in sample:
        definitional = _minimal_meeting(space, (k,))
        if definitional != per_k[k]:
            raise CheckFailed("single-set scan disagrees with definition", k)
    # canonical order lists a strict subset before its superset
    pairs = itertools.islice(
        ((big, small) for i, big in enumerate(qx) for small in qx[:i]
         if bits.is_subset(small, big)),
        64,
    )
    for big, small in pairs:
        fam = FilteredFamily(space, (big, small))
        two = _minimal_meeting(space, fam.members)
        if two != per_k[small]:
            raise CheckFailed("two-member scan disagrees with least member")
        if not set(two) <= out:
            raise CheckFailed("two-member scan escaped the single-set scan")
    result = bits.canon(out)
    sc = set(point_closures(space))
    irr = set(irreducible_closed_sets(space))
    if not sc <= set(result) <= irr:
        raise CheckFailed("family sandwich violated by the meeting family")
    return result


@lru_cache(maxsize=4096)
def wd_status(space: FinSpace) -> tuple[int, ...]:
    """The image-closure family, squeezed between its proven bounds.

    It contains the meeting family and lies inside the irreducible
    family; on a finite space the two are equal, so it is their common
    value.  Bounds that differ raise instead of being guessed between.
    """
    irr = irreducible_closed_sets(space)
    if kf_sets(space) != irr:
        raise CheckFailed("squeeze bounds differ: meeting family is not the irreducible family")
    return irr


def sc_family(space: FinSpace) -> ClosedFamily:
    return ClosedFamily(space, point_closures(space), "Sc")


def irr_family(space: FinSpace) -> ClosedFamily:
    return ClosedFamily(space, irreducible_closed_sets(space), "Irr")


def kf_family(space: FinSpace) -> ClosedFamily:
    return ClosedFamily(space, kf_sets(space), "KF")


def family_members(kind: str, space: FinSpace) -> tuple[int, ...]:
    """Members of the named closed-set family of a finite space.

    Sc: point closures; Irr: irreducible closed sets; KF: the meeting
    family; WD: the squeezed image-closure family.
    """
    if kind == "Sc":
        return point_closures(space)
    if kind == "Irr":
        return irreducible_closed_sets(space)
    if kind == "KF":
        return kf_sets(space)
    if kind == "WD":
        return wd_status(space)
    raise PreconditionViolated(f"unknown family kind {kind!r}")


def pushforward_family(f: ContinuousMap, a_mask: int, kind: str) -> int:
    """Closure of the image of a family member, verified to stay in kind."""
    if a_mask not in set(family_members(kind, f.source)):
        raise PreconditionViolated("set is not a member of the source family")
    image_closure = f.target.closure(f.image(a_mask))
    if image_closure not in set(family_members(kind, f.target)):
        raise CheckFailed("pushforward left the family", image_closure)
    return image_closure
