"""Bitmask subsets and bit-sliced family algebra, on plain Python ints.

A subset of an indexed carrier is a Python int with bit i set for element i.
A family is a tuple of such masks in canonical order: sorted by cardinality,
then lexicographically by the sorted index tuple.  Family scans use the
bit-sliced view from `bit_slices`: one int per point whose bit j says
whether member j contains that point, so one int operation tests every
member at once.  Ints grow as needed; `MAX_CARRIER` is a declared input
budget (a larger carrier raises `BudgetExceeded`, exit code 3), not a word
size.

Exhaustive scans over every subset of a small carrier use truth tables
instead (Knuth, TAOCP 4A, 7.1.3): a 2^n-bit int whose bit s says whether
a formula holds for the subset with mask s.  `subset_columns(n)[x]` is
the table of "x is a member", and Boolean operations on tables evaluate
a formula for all 2^n subsets at once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

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


def _byte_table(offset: int) -> tuple[tuple[int, ...], ...]:
    """Entry b is the index tuple of byte value b placed at bit `offset`."""
    table = [()]
    for i in range(offset, offset + 8):
        table += [t + (i,) for t in table]
    return tuple(table)


# one table per byte of a 64-bit mask; every point mask fits (MAX_CARRIER)
_BYTE_TABLES = tuple(_byte_table(8 * k) for k in range(8))
# binary digit characters to 0/1 selector bytes
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def indices_of(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of `mask`, in increasing order.

    Masks below 2^64, which include every point mask, are read a byte at
    a time from `_BYTE_TABLES`.  Wider masks index a family, such as the
    closed sets selected in `families._minimal_meeting`; in the bench
    workloads they are 66 to 441 bits wide with a median of a quarter to
    two fifths of their bits set.  They are read in one pass over their
    binary digits, which on those masks takes about a third of the time
    of one step per set bit; byte tables for every offset would be about
    as fast but cost some 20 KB per byte of width.  On point masks the
    digit scan is four to six times slower than the byte tables.
    """
    if mask >> 64:
        digits = format(mask, "b")[::-1].encode().translate(_DIGITS)
        return tuple(itertools.compress(range(len(digits)), digits))
    out = _BYTE_TABLES[0][mask & 255]
    mask >>= 8
    k = 1
    while mask:
        out += _BYTE_TABLES[k][mask & 255]
        mask >>= 8
        k += 1
    return out


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


@lru_cache(maxsize=32)
def subset_columns(n: int) -> tuple[int, ...]:
    """Entry x is the 2^n-bit truth table of "x is a member": bit s is
    set when x is in the subset with mask s."""
    width = 1 << n
    out = []
    for x in range(n):
        run = 1 << x
        table = ((1 << run) - 1) << run  # one period: 2^x clear, 2^x set
        period = 2 * run
        while period < width:
            table |= table << period
            period *= 2
        out.append(table)
    return tuple(out)


def meets_table(mask: int, n: int) -> int:
    """Truth table of "the subset meets `mask`"."""
    cols = subset_columns(n)
    out = 0
    for x in indices_of(mask):
        out |= cols[x]
    return out


def directed_table(up: tuple[int, ...], n: int) -> int:
    """Truth table of "the subset is directed" for the order with up-masks
    `up`: nonempty, and each unordered pair of distinct members has an
    upper bound among the members (a member is its own bound)."""
    cols = subset_columns(n)
    out = (1 << (1 << n)) - 2
    for a in range(n):
        for b in range(a + 1, n):
            out &= ~(cols[a] & cols[b]) | meets_table(up[a] & up[b], n)
    return out
