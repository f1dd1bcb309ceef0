"""Finite partial orders over an indexed carrier, with exact bitmask relations.

A `FinPoset` stores, for each element index i, the mask `up[i]` of every j
with i <= j.  Input relations are given as generating pairs (Hasse-style or
arbitrary); `validate_poset` takes the reflexive-transitive closure and
rejects antisymmetry violations with a witness pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import bits
from .errors import (
    AntisymmetryViolation,
    BudgetExceeded,
    CheckFailed,
    DuplicateLabel,
    UnknownLabel,
)


def check_preorder(labels, up) -> None:
    """Raise unless `up` holds one up-mask per label of a reflexive and
    transitive relation (the shared check of `FinPoset` and `FinSpace`)."""
    n = len(labels)
    bits.check_carrier(n)
    if len(up) != n:
        raise CheckFailed("one up-mask per label expected", (n, len(up)))
    full = (1 << n) - 1
    for i, u in enumerate(up):
        if u & ~full or not u >> i & 1:
            raise CheckFailed("up-mask not reflexive or out of range", i)
        for j in bits.indices_of(u):
            if up[j] & ~u:
                raise CheckFailed("relation not transitive", (i, j))


def cover_pairs(up, down) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j) with j strictly above i and nothing strictly between,
    in increasing (i, j) order, for a preorder given by its up-masks and
    down-masks (the Hasse edges of `FinPoset.covers` and of `io`'s DOT
    diagrams)."""
    out = []
    for i in range(len(up)):
        strict_up = up[i] & ~(1 << i)
        for j in bits.indices_of(strict_up):
            between = strict_up & down[j] & ~(1 << j)
            if not between:
                out.append((i, j))
    return tuple(out)


def label_index(labels: tuple[str, ...]) -> dict[str, int]:
    """The position of each label; raises `DuplicateLabel` on the first
    repeated label and `BudgetExceeded` on an oversized carrier (the
    shared label check of `validate_poset` and `spaces.make_space`)."""
    index = {}
    for i, l in enumerate(labels):
        if l in index:
            raise DuplicateLabel(l)
        index[l] = i
    bits.check_carrier(len(labels))
    return index


@dataclass(frozen=True)
class FinPoset:
    labels: tuple[str, ...]
    up: tuple[int, ...]

    def __post_init__(self):
        check_preorder(self.labels, self.up)
        for i, u in enumerate(self.up):
            for j in bits.indices_of(u & ~(1 << i)):
                if self.up[j] >> i & 1:
                    raise CheckFailed("relation not antisymmetric", (i, j))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def down(self) -> tuple[int, ...]:
        return bits.bit_slices(self.up, self.n)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

    def labels_of_mask(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in bits.indices_of(mask))

    def up_closure(self, mask: int) -> int:
        out = 0
        for i in bits.indices_of(mask):
            out |= self.up[i]
        return out

    def down_closure(self, mask: int) -> int:
        out = 0
        for i in bits.indices_of(mask):
            out |= self.down[i]
        return out

    def is_up_set(self, mask: int) -> bool:
        return self.up_closure(mask) == mask

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (i, j): i < j with nothing strictly between."""
        return cover_pairs(self.up, self.down)


def validate_poset(labels, pairs) -> FinPoset:
    """Build a poset from labels and generating <=-pairs.

    The relation is closed reflexively and transitively; duplicate labels,
    unknown labels in pairs, and antisymmetry violations are rejected with
    witnesses.
    """
    labels = tuple(labels)
    index = label_index(labels)
    n = len(labels)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in index:
            raise UnknownLabel(a)
        if b not in index:
            raise UnknownLabel(b)
        up[index[a]] |= 1 << index[b]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            merged = up[i]
            for j in bits.indices_of(up[i]):
                merged |= up[j]
            if merged != up[i]:
                up[i] = merged
                changed = True
    for i in range(n):
        for j in bits.indices_of(up[i]):
            if i != j and up[j] >> i & 1:
                raise AntisymmetryViolation(labels[i], labels[j])
    return FinPoset(labels, tuple(up))


def upper_bounds(poset: FinPoset, mask: int) -> int:
    ubs = poset.full_mask
    for i in bits.indices_of(mask):
        ubs &= poset.up[i]
    return ubs


def supremum(poset: FinPoset, mask: int):
    """Least upper bound index of a subset, or None if it does not exist.

    The supremum of the empty set is the least element (when present).
    """
    ubs = upper_bounds(poset, mask)
    for u in bits.indices_of(ubs):
        if bits.is_subset(ubs, poset.up[u]):
            return u
    return None


def maximal_elements(poset: FinPoset) -> int:
    m = 0
    for i in range(poset.n):
        if poset.up[i] == 1 << i:
            m |= 1 << i
    return m


def is_bounded_complete(poset: FinPoset):
    """Check that every subset with an upper bound has a supremum.

    On a finite poset that holds exactly when a bottom exists (the empty
    subset is bounded whenever the poset is nonempty) and every bounded
    pair has a join: the members of a bounded set can then be joined one
    at a time, each partial join staying below every bound.  Returns
    (verdict, witness) where the witness is the canonically-first bounded
    subset without a supremum (the empty set, else the first failing
    pair), the same one the exhaustive `bounded_complete_oracle` finds.
    """
    if poset.n and supremum(poset, 0) is None:
        return False, 0
    for i in range(poset.n):
        for j in range(i + 1, poset.n):
            pair = 1 << i | 1 << j
            if upper_bounds(poset, pair) and supremum(poset, pair) is None:
                return False, pair
    return True, None


# element budget of the truth-table scans: each table is 2^n bits wide
MAX_TABLE_ELEMENTS = 16


def _check_table_budget(poset: FinPoset, scan: str) -> None:
    if poset.n > MAX_TABLE_ELEMENTS:
        raise BudgetExceeded(f"{scan} limited to {MAX_TABLE_ELEMENTS} elements")


def _bound_tables(poset: FinPoset):
    """Truth tables over every subset (`bits.subset_columns`), one per
    element u: `(bounded_by, lub)`.

    `bounded_by[u]` holds the subsets u bounds, those meeting nothing
    outside down[u]; `lub[u]` those whose least upper bound is u, the
    subsets u bounds that no element outside up[u] bounds.
    """
    n = poset.n
    every = (1 << (1 << n)) - 1
    bounded_by = tuple(every & ~bits.meets_table(poset.full_mask & ~poset.down[u], n)
                       for u in range(n))
    lub = []
    for u in range(n):
        least = bounded_by[u]
        for v in bits.indices_of(poset.full_mask & ~poset.up[u]):
            least &= ~bounded_by[v]
        lub.append(least)
    return bounded_by, tuple(lub)


def bounded_complete_oracle(poset: FinPoset):
    """Independent exhaustive path for `is_bounded_complete`.

    Every one of the 2^n subsets is covered, as one bit of the truth
    tables of `_bound_tables`: a subset fails when some element bounds
    it and none is its least upper bound.  Bounds are read from the
    down-sets and least-ness from the elements outside each up-set, all
    subsets at once, rather than by `upper_bounds`, `supremum` or the
    pairwise reduction of `is_bounded_complete`.  The witness is the
    canonically first failing subset.  A poset past `MAX_TABLE_ELEMENTS`
    raises `BudgetExceeded` before any table is built.
    """
    _check_table_budget(poset, "bounded-completeness oracle")
    bounded = has_lub = 0
    for bound, least in zip(*_bound_tables(poset)):
        bounded |= bound
        has_lub |= least
    failures = bounded & ~has_lub
    if failures:
        return False, min(bits.indices_of(failures), key=bits.subset_key)
    return True, None


def is_directed(poset: FinPoset, mask: int) -> bool:
    """Nonempty, and every pair of members has an upper bound in the set.

    A member paired with itself is its own bound, so each unordered pair
    of distinct members is tested once, as `up[a] & up[b] & mask`.
    """
    if not mask:
        return False
    members = bits.indices_of(mask)
    for i, a in enumerate(members):
        bounds_a = poset.up[a] & mask
        for b in members[i + 1:]:
            if not bounds_a & poset.up[b]:
                return False
    return True


def directed_subsets(poset: FinPoset) -> tuple[tuple[int, int], ...]:
    """All directed subsets with their supremum indices.

    A nonempty subset of a finite poset is directed exactly when it has a
    greatest element, so the enumeration runs over (m, S) with S inside the
    strict down-set of m.  Suprema are still computed by the definitional
    least-upper-bound routine and checked against the greatest element.
    No production path calls it: the tests and the bench's tracer keep it
    as a reference enumerator, compared with an `is_directed` scan.
    """
    out = []
    for m in range(poset.n):
        below = poset.down[m] & ~(1 << m)
        sub = below
        while True:
            d = sub | (1 << m)
            s = supremum(poset, d)
            if s != m:
                raise CheckFailed("directed set supremum differs from maximum", d)
            out.append((d, s))
            if sub == 0:
                break
            sub = (sub - 1) & below
    return tuple(out)


def _algebraicity_tables(poset: FinPoset):
    """Truth tables over every subset (`bits.subset_columns`) for the
    algebraicity check: `(directed, lub, compact)`.

    `directed` holds the directed subsets and `lub[u]` those whose least
    upper bound is u (`_bound_tables`).  `compact` is the mask of the
    compact elements: k is compact when every directed set with a
    supremum at or above k meets up[k].  It is None when some directed
    subset has no supremum.
    """
    n = poset.n
    directed = bits.directed_table(poset.up, n)
    _bounded_by, lub = _bound_tables(poset)
    has_sup = 0
    for table in lub:
        has_sup |= table
    if directed & ~has_sup:
        return directed, lub, None
    compact = 0
    for k in range(n):
        sup_above = 0
        for u in bits.indices_of(poset.up[k]):
            sup_above |= lub[u]
        if not directed & sup_above & ~bits.meets_table(poset.up[k], n):
            compact |= 1 << k
    return directed, lub, compact


def is_algebraic_and_dcpo(poset: FinPoset) -> bool:
    """Definitional check: directed-complete and algebraic.

    Every directed subset must have a supremum, and every element must be
    the supremum of its (directed) set of compact elements below it.  On
    finite posets both always hold; the value is computed, not assumed.
    Every one of the 2^n subsets is covered, as one bit of the truth
    tables of `_algebraicity_tables`; the last check reads, for each
    element x, the bit of its compact down-set in `directed` and in
    `lub[x]`.  The tables are 2^n bits wide, hence `MAX_TABLE_ELEMENTS`.
    """
    _check_table_budget(poset, "algebraicity scan")
    directed, lub, compact = _algebraicity_tables(poset)
    if compact is None:
        return False
    for x in range(poset.n):
        kx = compact & poset.down[x]
        if not (directed & lub[x]) >> kx & 1:
            return False
    return True


def linear_extension(poset: FinPoset) -> tuple[int, ...]:
    remaining = set(range(poset.n))
    order = []
    while remaining:
        pick = min(
            i for i in remaining if all(j == i or j not in remaining
                                        for j in bits.indices_of(poset.down[i]))
        )
        order.append(pick)
        remaining.remove(pick)
    return tuple(order)


def down_sets(poset: FinPoset) -> tuple[int, ...]:
    """All order ideals (down-closed subsets), including the empty set."""
    ideals = [0]
    for x in linear_extension(poset):
        need = poset.down[x] & ~(1 << x)
        grown = [i | (1 << x) for i in ideals if bits.is_subset(need, i)]
        ideals.extend(grown)
    return bits.canon(ideals)


def up_sets(poset: FinPoset) -> tuple[int, ...]:
    full = poset.full_mask
    return bits.canon(full & ~d for d in down_sets(poset))
