"""Reference implementations that more than one test module checks the
package against.  They live here, not in `branchpde`, because no command
uses them."""

from __future__ import annotations

import math
from typing import Iterator

from branchpde.mechanism import Code, MechanismEntry, offspring_set
from branchpde.multiindex import MultiIndex


def dominating_offspring_set(alpha: MultiIndex, j: int, d: int) -> list[MechanismEntry]:
    """All entries of the dominating mechanism for code (alpha, j >= 0):
    offspring_set's, with the first child of each kind-i entry at j = 0."""
    if j < 0:
        raise ValueError("dominating chain codes have j >= 0")
    return [
        e._replace(children=(e.children[0]._replace(j=0), e.children[1])) if e.kind else e
        for e in offspring_set(Code(alpha, j), d)
    ]


def finite_difference(f, x: float, m: int, h: float = 1e-2, levels: int = 3) -> float:
    """m-th derivative by the (m+1)-point central stencil with Richardson
    extrapolation over steps h, 2h, 4h (refining below h would push the
    stencil into roundoff at higher m).

    Independent cross-check for jets; accuracy degrades past m ~ 5.
    """
    def stencil(step):
        # m-th central difference: sum_k (-1)^k C(m,k) f(x + (m/2 - k) step)
        total = 0.0
        for k in range(m + 1):
            total += (-1) ** k * math.comb(m, k) * f(x + (m / 2 - k) * step)
        return total / step**m

    rows = [[stencil(h * 2**i)] for i in range(levels)]
    for j in range(1, levels):
        for i in range(levels - j):
            rows[i].append(
                (4**j * rows[i][j - 1] - rows[i + 1][j - 1]) / (4**j - 1)
            )
    return rows[0][-1]


def generalized_binomial(s: float, k: int) -> float:
    """binom(s, k) = s(s-1)...(s-k+1)/k! for real s, integer k >= 0.

    Product form of the Gamma-ratio convention Gamma(s+1)/(Gamma(k+1)
    Gamma(s-k+1)); valid for negative s where the Gamma form has poles.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    out = 1.0
    for i in range(k):
        out *= (s - i) / (i + 1)
    return out


def fuss_catalan(k: int, p: float, r: float) -> float:
    """Fuss-Catalan number F_k(p, r) = (r/k) binom(kp + r - 1, k - 1)."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return r / k * generalized_binomial(k * p + r - 1, k - 1)


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
