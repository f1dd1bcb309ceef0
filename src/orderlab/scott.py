"""Scott topology of a finite poset, computed along two routes.

The definitional route filters candidate upper sets by the inaccessibility
law (every directed set whose supremum lands in the candidate must meet
it); the structural route takes all upper sets.  On finite posets these
coincide and the constructor insists on it.
"""

from __future__ import annotations

from . import bits
from .errors import CheckFailed
from .posets import FinPoset, directed_subsets, up_sets
from .spaces import FinSpace, make_space, subspace


def scott_space(poset: FinPoset) -> FinSpace:
    """Scott space of a poset, dual-path checked.

    Suprema of directed sets are computed by the definitional least-upper-
    bound routine inside `directed_subsets`, never read off as maxima.  The
    inaccessibility filter is bit-sliced over the directed sets: per point,
    one int of the directed sets holding it and one of those whose
    supremum it is.
    """
    candidates = up_sets(poset)
    directed = directed_subsets(poset)
    holds = bits.bit_slices([d for d, _ in directed], poset.n)
    sup_at = bits.bit_slices([1 << s for _, s in directed], poset.n)
    definitional = []
    for u in candidates:
        sup_inside = meets = 0
        for p in bits.indices_of(u):
            sup_inside |= sup_at[p]
            meets |= holds[p]
        if not sup_inside & ~meets:
            definitional.append(u)
    if tuple(definitional) != candidates:
        raise CheckFailed("definitional Scott opens differ from upper sets")
    space = make_space(poset.labels, candidates)
    if space.spec_up != poset.up:
        raise CheckFailed("Scott specialization differs from the input order")
    return space


def max_point_space(space: FinSpace):
    """Maximal points of a Scott space with the relative topology, plus the
    inclusion.

    Takes the space `scott_space` built rather than the poset, so the
    Scott space is never built a second time; a pair model keeps its own
    restriction as `XiZhaoPoset.max_space`.  The maximal points are read
    off the specialization order, which `scott_space` asserts equals the
    poset's.  For a finite poset this
    subspace is discrete; that consequence is asserted rather than assumed.
    """
    max_mask = bits.mask_of(
        x for x in range(space.n) if space.spec_up[x] == 1 << x
    )
    sub, incl = subspace(space, max_mask)
    if len(sub.opens) != 1 << sub.n:
        raise CheckFailed("maximal-point subspace is not discrete")
    return sub, incl
