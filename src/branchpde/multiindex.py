"""Multi-index arithmetic: orders, factorials, partial order and grid
enumeration.

Multi-indices are plain tuples of non-negative ints.  Everything here is
exact big-integer arithmetic; callers convert to float at consumption sites.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Tuple

MultiIndex = Tuple[int, ...]


def mi_abs(alpha: MultiIndex) -> int:
    """Total order |alpha| = alpha_1 + ... + alpha_d."""
    return sum(alpha)


def mi_factorial(alpha: MultiIndex) -> int:
    """alpha! = alpha_1! ... alpha_d!, exact."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def mi_leq(beta: MultiIndex, alpha: MultiIndex) -> bool:
    """Componentwise partial order beta <= alpha."""
    if len(beta) != len(alpha):
        raise ValueError(f"length mismatch: {len(beta)} vs {len(alpha)}")
    return all(b <= a for b, a in zip(beta, alpha))


def mi_sub(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    """alpha - beta for beta <= alpha."""
    if not mi_leq(beta, alpha):
        raise ValueError(f"{beta} is not <= {alpha}")
    return tuple(a - b for a, b in zip(alpha, beta))


def mi_enumerate_below(alpha: MultiIndex) -> list[MultiIndex]:
    """All beta with 0 <= beta <= alpha in lexicographic order.

    This ordering is the canonical one used by inverse-CDF offspring
    sampling and must stay stable.
    """
    return list(product(*(range(a + 1) for a in alpha)))


def mi_upto(total: int, d: int) -> list[MultiIndex]:
    """All alpha in d dimensions with |alpha| <= total, in lexicographic order.

    The walk visits the simplex alone: from alpha, the next index grows the
    last entry while |alpha| < total, and otherwise zeroes the rightmost
    nonzero entry and carries one to its left; it ends at (total, 0, ..., 0).
    """
    if total < 0 or d == 0:
        return [()] if total >= 0 else []
    alpha, size, out = [0] * d, 0, []
    while True:
        out.append(tuple(alpha))
        if size < total:
            alpha[-1] += 1
            size += 1
            continue
        i = d - 1
        while i > 0 and alpha[i] == 0:
            i -= 1
        if i == 0:
            return out
        size -= alpha[i] - 1
        alpha[i] = 0
        alpha[i - 1] += 1


def mi_add_unit(alpha: MultiIndex, i: int) -> MultiIndex:
    """alpha + 1_i with 1-based coordinate index i."""
    if not 1 <= i <= len(alpha):
        raise ValueError(f"coordinate index {i} out of range 1..{len(alpha)}")
    return alpha[: i - 1] + (alpha[i - 1] + 1,) + alpha[i:]
