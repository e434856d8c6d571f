"""Multi-index arithmetic: orders, factorials, partial order, binomials,
grid enumeration and integer compositions.

Multi-indices are plain tuples of non-negative ints.  Everything here is
exact big-integer arithmetic; callers convert to float at consumption sites.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, Sequence, Tuple

MultiIndex = Tuple[int, ...]


def validate(alpha: Sequence[int]) -> MultiIndex:
    """Return alpha as a tuple after checking all components are >= 0."""
    out = tuple(int(a) for a in alpha)
    if any(a < 0 for a in out):
        raise ValueError(f"multi-index components must be >= 0, got {out}")
    return out


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


def mi_binomial(alpha: MultiIndex, beta: MultiIndex) -> int:
    """Product of componentwise binomial coefficients, requires beta <= alpha."""
    if not mi_leq(beta, alpha):
        raise ValueError(f"{beta} is not <= {alpha}")
    out = 1
    for a, b in zip(alpha, beta):
        out *= math.comb(a, b)
    return out


def mi_enumerate_below(alpha: MultiIndex) -> list[MultiIndex]:
    """All beta with 0 <= beta <= alpha in lexicographic order.

    This ordering is the canonical one used by inverse-CDF offspring
    sampling and must stay stable.
    """
    return list(product(*(range(a + 1) for a in alpha)))


def mi_upto(total: int, d: int) -> list[MultiIndex]:
    """All alpha in d dimensions with |alpha| <= total, in lexicographic order."""
    return [al for al in product(range(total + 1), repeat=d) if mi_abs(al) <= total]


def mi_add_unit(alpha: MultiIndex, i: int) -> MultiIndex:
    """alpha + 1_i with 1-based coordinate index i."""
    if not 1 <= i <= len(alpha):
        raise ValueError(f"coordinate index {i} out of range 1..{len(alpha)}")
    return alpha[: i - 1] + (alpha[i - 1] + 1,) + alpha[i:]


def integer_compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    """All tuples of `parts` non-negative ints summing to `total`, lex order."""
    if total < 0 or parts < 1:
        raise ValueError("need total >= 0 and parts >= 1")
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in integer_compositions(total - first, parts - 1):
            yield (first,) + rest
