"""Scott topology of a finite poset.

On a finite poset every directed set has a greatest element, which is its
supremum, so every up-set is inaccessible by directed suprema: the Scott
opens are exactly the up-sets.  The tests compare this with the
definition over every directed set that `is_directed` finds; the
oracle's `scott-upper` route compares the opens with `posets.up_sets`.
"""

from __future__ import annotations

from . import bits
from .errors import CheckFailed
from .posets import FinPoset
from .spaces import FinSpace, subspace


def scott_space(poset: FinPoset) -> FinSpace:
    """Scott space of a finite poset, which is its Alexandrov space: the
    opens are exactly the up-sets, and nothing is enumerated here."""
    return FinSpace(poset.labels, poset.up)


def max_point_space(space: FinSpace):
    """Maximal points of a Scott space with the relative topology, plus the
    inclusion.

    Takes the space `scott_space` built rather than the poset, so the
    Scott space is never built a second time; a pair model keeps its own
    restriction as `XiZhaoPoset.max_space`.  The maximal points are read
    off the specialization order, which is the poset's.  For a finite
    poset this subspace is discrete (every point is only below itself);
    that consequence is asserted rather than assumed.
    """
    max_mask = bits.mask_of(
        x for x in range(space.n) if space.spec_up[x] == 1 << x
    )
    sub, incl = subspace(space, max_mask)
    if any(u != 1 << x for x, u in enumerate(sub.spec_up)):
        raise CheckFailed("maximal-point subspace is not discrete")
    return sub, incl
