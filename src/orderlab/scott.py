"""Scott topology of a finite poset, computed along two routes.

The structural route is the space of the poset's own order, whose opens
are its upper sets; the definitional route filters those upper sets by
the inaccessibility law (every directed set whose supremum lands in the
candidate must meet it).  On finite posets these coincide and the
constructor insists on it.
"""

from __future__ import annotations

from . import bits
from .errors import CheckFailed
from .posets import FinPoset, directed_subsets
from .spaces import FinSpace, subspace


def scott_space(poset: FinPoset) -> FinSpace:
    """Scott space of a poset, dual-path checked.

    Suprema of directed sets are computed by the definitional least-upper-
    bound routine inside `directed_subsets`, never read off as maxima.  The
    inaccessibility filter is bit-sliced over the directed sets: per point,
    one int of the directed sets holding it and one of those whose
    supremum it is.
    """
    space = FinSpace(poset.labels, poset.up)
    directed = directed_subsets(poset)
    holds = bits.bit_slices([d for d, _ in directed], poset.n)
    sup_at = bits.bit_slices([1 << s for _, s in directed], poset.n)
    definitional = []
    for u in space.opens:
        sup_inside = meets = 0
        for p in bits.indices_of(u):
            sup_inside |= sup_at[p]
            meets |= holds[p]
        if not sup_inside & ~meets:
            definitional.append(u)
    if tuple(definitional) != space.opens:
        raise CheckFailed("definitional Scott opens differ from upper sets")
    return space


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
