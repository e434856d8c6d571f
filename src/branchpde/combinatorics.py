"""Stirling numbers, Gamma ratios and the exact identities used by the
growth analysis.

Integer-valued results are exact; `log_gamma_ratio` is the only float path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def _stirling2_rec(m: int, k: int) -> int:
    if k > m or k < 0:
        return 0
    if m == 0:
        return 1
    if k == 0:
        return 0
    return k * _stirling2_rec(m - 1, k) + _stirling2_rec(m - 1, k - 1)


def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind S(m, k), exact.

    Recursion S(m+1, k) = k S(m, k) + S(m, k-1) with S(0,0)=1,
    S(m,0)=0 for m>=1.
    """
    if m < 0 or k < 0 or k > m:
        raise ValueError(f"need 0 <= k <= m, got m={m}, k={k}")
    return _stirling2_rec(m, k)


def polylog_neg_half(m: int) -> int:
    """Li_{-m}(1/2) via two independent Stirling sums, exact.

    Computes both sum_{k=0}^{m} k! S(m+1, k+1) and 2 sum_{k=1}^{m} k! S(m, k)
    and raises if they disagree (that would be an implementation bug).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    a = sum(math.factorial(k) * stirling2(m + 1, k + 1) for k in range(m + 1))
    b = 2 * sum(math.factorial(k) * stirling2(m, k) for k in range(1, m + 1))
    if a != b:
        raise AssertionError(f"polylog Stirling sums disagree at m={m}: {a} != {b}")
    return a


def tree_identity_check(k: int) -> bool:
    """Check sum_l C(k,l) (l+1)^(l-1) (k-l+1)^(k-l-1) == 2 (k+2)^(k-1), exact.

    The l=0 and l=k terms (and the right side at k=0) involve 1^(-1) and
    2^(-1); Fractions keep those exact.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    lhs = sum(
        Fraction(math.comb(k, l))
        * Fraction(l + 1) ** (l - 1)
        * Fraction(k - l + 1) ** (k - l - 1)
        for l in range(k + 1)
    )
    rhs = 2 * Fraction(k + 2) ** (k - 1)
    return lhs == rhs


def log_gamma_ratio(a: float, b: float) -> float:
    """log(Gamma(a) / Gamma(b)) for a, b > 0, overflow-safe."""
    if a <= 0 or b <= 0:
        raise ValueError(f"need positive arguments, got a={a}, b={b}")
    return math.lgamma(a) - math.lgamma(b)


def gamma_ratio_exact(b: Fraction, n: int) -> Fraction:
    """Gamma(b + n) / Gamma(b) = b (b+1) ... (b+n-1), exact for rational b."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = Fraction(1)
    for i in range(n):
        out *= b + i
    return out


def pochhammer_falling(m: int, r) -> Fraction:
    """(m + r - 1)_m = (r)(r+1)...(r+m-1), the growth factor prod_{l<m}(r+l)."""
    out = Fraction(1)
    for l in range(m):
        out *= r + l
    return out
