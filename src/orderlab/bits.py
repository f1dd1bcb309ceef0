"""Bitmask subsets and bit-sliced family algebra, on plain Python ints.

A subset of an indexed carrier is a Python int with bit i set for element i.
A family is a tuple of such masks in canonical order: sorted by cardinality,
then lexicographically by the sorted index tuple.  Family scans use the
bit-sliced view from `bit_slices`: one int per point whose bit j says
whether member j contains that point, so one int operation tests every
member at once.  Ints grow as needed; `MAX_CARRIER` is a declared input
budget (a larger carrier raises `BudgetExceeded`, exit code 3), not a word
size.
"""

from __future__ import annotations

from .errors import BudgetExceeded

MAX_CARRIER = 60


def check_carrier(n: int) -> None:
    if n > MAX_CARRIER:
        raise BudgetExceeded(f"carrier of size {n} exceeds the {MAX_CARRIER}-point budget")


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_key(mask: int):
    """Canonical sort key: cardinality, then sorted index tuple."""
    return (mask.bit_count(), indices_of(mask))


def canon(family) -> tuple[int, ...]:
    """Deduplicate and order a family canonically."""
    return tuple(sorted(set(family), key=subset_key))


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def bit_slices(family, n: int) -> tuple[int, ...]:
    """Entry p has bit j set when family member j contains point p."""
    out = [0] * n
    for j, m in enumerate(family):
        for p in indices_of(m):
            out[p] |= 1 << j
    return tuple(out)


def minimal_members(family) -> tuple[int, ...]:
    """Inclusion-minimal members of a family of masks."""
    ordered = sorted(set(family), key=subset_key)
    mins: list[int] = []
    for m in ordered:
        if not any(is_subset(k, m) for k in mins):
            mins.append(m)
    return canon(mins)

