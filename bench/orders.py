"""Order computations made apart from orderlab, for inputs and checks.

Every function here works on a poset given as its up-mask tuple
(`up[i]` has bit j set when i <= j), the form `FinPoset.up` stores and
the JSON documents imply.  Nothing here calls into orderlab, so a check
built on these functions does not share a fault with the program.
"""

from __future__ import annotations

from functools import lru_cache


def down_masks(up: tuple[int, ...]) -> tuple[int, ...]:
    down = [0] * len(up)
    for i, u in enumerate(up):
        for j in range(len(up)):
            if u >> j & 1:
                down[j] |= 1 << i
    return tuple(down)


def maximal(up: tuple[int, ...]) -> list[int]:
    return [i for i, u in enumerate(up) if u == 1 << i]


def model_pairs(up: tuple[int, ...]) -> list[tuple[int, int]]:
    """Pairs (x, e) with e maximal and x <= e: the pair model's carrier."""
    return [(x, e) for e in maximal(up) for x in range(len(up)) if up[x] >> e & 1]


def model_up(up: tuple[int, ...]) -> tuple[int, ...]:
    """Up-masks of the pair model over `model_pairs(up)`.

    (x, e) <= (y, d) when e = d and x <= y, or when (y, d) is a slice top
    (y = d) and x <= d.
    """
    pairs = model_pairs(up)
    out = []
    for x, e in pairs:
        m = 0
        for j, (y, d) in enumerate(pairs):
            if (e == d and up[x] >> y & 1) or (y == d and up[x] >> d & 1):
                m |= 1 << j
        out.append(m)
    return tuple(out)


def count_up_sets(up: tuple[int, ...]) -> int:
    """Number of up-sets, i.e. of Scott opens of a finite poset.

    Splits on the lowest remaining element x: a down-set either avoids
    the up-set of x or contains the down-set of x.  Counting down-sets
    counts up-sets, by complement.
    """
    down = down_masks(up)

    @lru_cache(maxsize=None)
    def count(mask: int) -> int:
        if not mask:
            return 1
        x = (mask & -mask).bit_length() - 1
        return count(mask & ~up[x]) + count(mask & ~down[x])

    return count((1 << len(up)) - 1)


def up_sets(up: tuple[int, ...]) -> list[int]:
    """Every up-set as a mask, by the same split as `count_up_sets`."""
    down = down_masks(up)
    full = (1 << len(up)) - 1

    def downs(mask: int) -> list[int]:
        if not mask:
            return [0]
        x = (mask & -mask).bit_length() - 1
        without = downs(mask & ~up[x])
        with_x = [d | (down[x] & mask) for d in downs(mask & ~down[x])]
        return without + with_x

    return sorted(full & ~d for d in downs(full))
