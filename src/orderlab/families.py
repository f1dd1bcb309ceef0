"""Closed-set families between point closures and irreducible closed sets.

Three families drive the classifiers: the point closures, the sets
obtainable as minimal closed sets meeting every member of a filtered
compact-saturated family, and the irreducible closed sets.  The
image-closure family sits between the middle one and the irreducible
family; it is never evaluated from its definition (which quantifies over
all continuous maps into well-filtered spaces) but squeezed: on a finite
space the two bounds coincide, so the family is their common value, and
a gap between them raises.

The meeting family is computed for all single compact saturated sets at
once, bit-sliced over Q(X), by a production route (closures of minimal
points) and a definitional one (closed sets meeting K whose lower covers
do not), compared on every (closed, compact) pair.  It and the squeezed
family are memoized by specialization preorder (`preorder_memo`), so
spaces that differ only in their labels share them.

`family_members` is the one mapping from a kind name (Sc, Irr, KF, WD) to
its family, on a finite space (canonical masks) and on the cofinite line
(a `SymClosedFamily`); every runner, evaluator and report that names a
family by kind goes through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import bits
from .cofinite import CofNat, irr_cofnat, kf_cofnat, sc_cofnat, wd_cofnat
from .errors import CheckFailed, InvalidFamily, PreconditionViolated
from .spaces import (
    FinSpace,
    compact_saturated_sets,
    irreducible_closed_sets,
    point_closures,
    preorder_memo,
)


@dataclass(frozen=True)
class FilteredFamily:
    """Nonempty family of compact saturated sets, filtered under inclusion."""

    space: FinSpace
    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise InvalidFamily("family is empty")
        # Q(X) is certified to be the nonempty opens
        compact_saturated_sets(self.space)
        opens = self.space.open_set
        for m in self.members:
            if not m or m not in opens:
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
    singleton family is cofinal in any finite filtered family).  When
    the least member is the whole family the two are one call on the
    same arguments, so the reduction runs only on larger families.
    """
    full = _minimal_meeting(space, family.members)
    least = family.least_member()
    if family.members != (least,) and full != _minimal_meeting(space, (least,)):
        raise CheckFailed("least-member reduction disagrees with the full scan")
    return full


def _compact_slices(space: FinSpace) -> list[int]:
    """Entry p has bit i set when the i-th compact saturated set holds p.

    Q(X) is the nonempty opens in canonical order, which is the opens
    without opens[0], the empty set.
    """
    return [s >> 1 for s in space.open_slices]


def _meeting_by_minimal_points(space: FinSpace) -> tuple[int, ...]:
    """Production route for every compact saturated set K at once: entry j
    has bit i set when closed[j] is a minimal closed set meeting the i-th.

    Any closed set meeting K at a point contains that point's closure,
    which still meets K; so the minimal ones are the closures of the
    minimal points of K.  Minimal is taken up to the preorder: no point
    of K lies strictly below x, though points equivalent to x may (they
    share its closure).  Two such closures are equal or incomparable, so
    nothing further is dropped.  A point is minimal in the compact sets
    that hold it and none of the points strictly below it.
    """
    holds = _compact_slices(space)
    out = [0] * len(space.closed)
    for x, down in enumerate(space.spec_down):
        below = 0
        for y in bits.indices_of(down & ~space.spec_up[x]):
            below |= holds[y]
        out[space.closed_index[down]] |= holds[x] & ~below
    return tuple(out)


def _meeting_by_lower_covers(space: FinSpace) -> tuple[int, ...]:
    """Definitional route, in the layout of `_meeting_by_minimal_points`:
    closed[j] is kept for K when it meets K and no strict closed subset
    does.

    Meeting K is monotone in the closed set, so it suffices that no lower
    cover of closed[j] meets K.  The lower covers of a closed set C are C
    minus one of its maximal equivalence classes: a closed D strictly
    inside C misses a point of C and, being a down-set, every point above
    it, among them a maximal class of C; so D lies in C minus that class,
    which is closed.  `meets[j]`, the compact sets meeting closed[j], is
    built in canonical order, which lists every lower cover first: it is
    a lower cover's plus the compact sets meeting the class removed.
    """
    holds = _compact_slices(space)
    index = space.closed_index
    spec_up, spec_down = space.spec_up, space.spec_down
    meets = []
    out = []
    for c in space.closed:
        covers = []
        for x in bits.indices_of(c):
            upper = c & spec_up[x]
            # x is maximal in c, and the least index of its class
            if not upper & ~spec_down[x] and upper & -upper == 1 << x:
                covers.append((index[c & ~upper], upper))
        hit = below = 0
        if covers:
            cover, removed = covers[0]
            hit = meets[cover]
            for p in bits.indices_of(removed):
                hit |= holds[p]
        for cover, _ in covers:
            below |= meets[cover]
        meets.append(hit)
        out.append(hit & ~below)
    return tuple(out)


@preorder_memo
def kf_sets(space: FinSpace) -> tuple[int, ...]:
    """Closed sets arising as minimal sets meeting a filtered family.

    The least-member reduction makes single compact saturated sets
    exhaustive.  Both single-set routes run over all of Q(X) at once,
    bit-sliced over its members: production takes each compact set's
    minimal points and their closures (`_meeting_by_minimal_points`),
    and the definitional route keeps a closed set that meets the compact
    set while none of its lower covers does (`_meeting_by_lower_covers`).
    They must agree on every (closed, compact) pair; nothing is sampled.
    A two-member scan over up to 64 nested pairs checks the reduction,
    and the point-closure/irreducible sandwich is asserted on the result.
    """
    qx = compact_saturated_sets(space)
    produced = _meeting_by_minimal_points(space)
    definitional = _meeting_by_lower_covers(space)
    if produced != definitional:
        diff = 0
        for a, b in zip(produced, definitional):
            diff |= a ^ b
        k = qx[(diff & -diff).bit_length() - 1]
        raise CheckFailed("single-set scan disagrees with definition",
                          space.labels_of_mask(k))
    kept = [(c, row) for c, row in zip(space.closed, produced) if row]
    # canonical order lists a strict subset before its superset
    pairs = itertools.islice(
        ((big, i) for b, big in enumerate(qx) for i in range(b)
         if bits.is_subset(qx[i], big)),
        64,
    )
    for big, i in pairs:
        fam = FilteredFamily(space, (big, qx[i]))
        if _minimal_meeting(space, fam.members) != tuple(
            c for c, row in kept if row >> i & 1
        ):
            raise CheckFailed("two-member scan disagrees with least member")
    result = tuple(c for c, _ in kept)
    sc = set(point_closures(space))
    irr = set(irreducible_closed_sets(space))
    if not sc <= set(result) <= irr:
        raise CheckFailed("family sandwich violated by the meeting family")
    return result


@preorder_memo
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


def family_members(kind: str, x):
    """The named closed-set family of a finite space, as canonical masks,
    or of the cofinite line, as a `SymClosedFamily`.

    Sc: point closures; Irr: irreducible closed sets; KF: the meeting
    family; WD: the squeezed image-closure family.
    """
    cofnat = isinstance(x, CofNat)
    if not cofnat and not isinstance(x, FinSpace):
        raise PreconditionViolated(
            f"families live on a finite space or the cofinite line, not {type(x).__name__}"
        )
    if kind == "Sc":
        return sc_cofnat() if cofnat else point_closures(x)
    if kind == "Irr":
        return irr_cofnat() if cofnat else irreducible_closed_sets(x)
    if kind == "KF":
        return kf_cofnat() if cofnat else kf_sets(x)
    if kind == "WD":
        return wd_cofnat() if cofnat else wd_status(x)
    raise PreconditionViolated(f"unknown family kind {kind!r}")
