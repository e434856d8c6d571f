import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import pytest

from branchpde.combinatorics import (
    gamma_ratio_exact,
    log_gamma_ratio,
    pochhammer_falling,
    polylog_neg_half,
    stirling2,
    tree_identity_check,
)
from oracles import fuss_catalan, generalized_binomial


def bell_partial(m: int, k: int, x: Sequence[float]):
    """Partial exponential Bell polynomial B_{m,k}(x_1, ..., x_{m-k+1}).

    Recursion over the first block containing element 1:
    B_{m,k} = sum_j C(m-1, j-1) x_j B_{m-j,k-1}.
    """
    if not (1 <= k <= m):
        raise ValueError(f"need 1 <= k <= m, got m={m}, k={k}")
    if len(x) < m - k + 1:
        raise ValueError(f"need at least {m - k + 1} arguments, got {len(x)}")

    table = {(0, 0): 1}

    def b(mm, kk):
        if kk == 0:
            return 1 if mm == 0 else 0
        if mm < kk:
            return 0
        key = (mm, kk)
        if key not in table:
            table[key] = sum(
                math.comb(mm - 1, j - 1) * x[j - 1] * b(mm - j, kk - 1)
                for j in range(1, mm - kk + 2)
            )
        return table[key]

    return b(m, k)


def bell_complete(m: int, x: Sequence[float]):
    """Complete exponential Bell polynomial B_m = sum_k B_{m,k}."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if len(x) < m:
        raise ValueError(f"need at least {m} arguments, got {len(x)}")
    return sum(bell_partial(m, k, x) for k in range(1, m + 1))


def set_partitions(items):
    """Brute-force oracle: all set partitions of a list."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def count_partitions_with_blocks(m, k):
    return sum(1 for p in set_partitions(list(range(m))) if len(p) == k)


def test_stirling_base_cases():
    assert stirling2(1, 1) == 1
    assert stirling2(0, 0) == 1
    assert stirling2(3, 0) == 0


def test_stirling_derived_values():
    # frozen from the set-partition oracle
    assert count_partitions_with_blocks(4, 2) == 7
    assert stirling2(4, 2) == 7
    assert count_partitions_with_blocks(5, 3) == 25
    assert stirling2(5, 3) == 25


def test_stirling_vs_brute_force():
    for m in range(0, 9):
        for k in range(0, m + 1):
            assert stirling2(m, k) == count_partitions_with_blocks(m, k)


def test_stirling_domain():
    with pytest.raises(ValueError):
        stirling2(2, 3)
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def bell_partial_oracle(m, k, x):
    """Sum over set partitions of {1..m} into k blocks of prod x_{|block|}."""
    total = 0
    for part in set_partitions(list(range(m))):
        if len(part) != k:
            continue
        term = 1
        for block in part:
            term *= x[len(block) - 1]
        total += term
    return total


def test_bell_partial_basics():
    assert bell_partial(3, 1, (0, 0, 6)) == 6  # B_{m,1} = x_m
    # oracle: partitions of {1,2,3} into 2 blocks, all x = 1
    assert bell_partial_oracle(3, 2, (1, 1, 1)) == 3
    assert bell_partial(3, 2, (1, 1)) == 3


def test_bell_partial_all_ones_is_stirling():
    for m in range(1, 9):
        for k in range(1, m + 1):
            assert bell_partial(m, k, (1,) * m) == stirling2(m, k)


def test_bell_complete_oracle():
    for m in range(1, 8):
        xs = tuple(Fraction(i + 2, 3) for i in range(m))
        total = sum(bell_partial_oracle(m, k, xs) for k in range(1, m + 1))
        assert bell_complete(m, xs) == total
    assert bell_complete(3, (1, 1, 1)) == 5


def test_bell_complete_factorial_cases():
    # B_m(0!, 1!, ..., (m-1)!) = m!
    for m in range(1, 9):
        xs = tuple(math.factorial(i) for i in range(m))
        assert bell_complete(m, xs) == math.factorial(m)
    # B_m(1!, ..., m!) = sum_k (m-1)!/(k-1)! C(m, k)
    for m in range(1, 7):
        xs = tuple(math.factorial(i + 1) for i in range(m))
        expected = sum(
            math.factorial(m - 1) // math.factorial(k - 1) * math.comb(m, k)
            for k in range(1, m + 1)
        )
        assert bell_complete(m, xs) == expected


def ballot_sequences(n):
    """Brute-force Catalan oracle: monotone lattice paths not crossing the
    diagonal, counted via balanced parenthesis strings."""
    def gen(s, opened, closed):
        if len(s) == 2 * n:
            yield s
            return
        if opened < n:
            yield from gen(s + "(", opened + 1, closed)
        if closed < opened:
            yield from gen(s + ")", opened, closed + 1)

    return sum(1 for _ in gen("", 0, 0))


def test_fuss_catalan():
    assert ballot_sequences(3) == 5
    assert fuss_catalan(3, 2, 1) == pytest.approx(5.0)
    assert fuss_catalan(1, 7.3, 2.5) == pytest.approx(2.5)  # F_1(p, r) = r
    assert fuss_catalan(2, 3, 1) == pytest.approx(3.0)  # (1/2) C(6, 1)


def test_generalized_binomial_negative_arguments():
    # falling-factorial continuation: binom(-5, 2) = (-5)(-6)/2 = 15
    assert generalized_binomial(-5, 2) == pytest.approx(15.0)
    assert generalized_binomial(6, 2) == pytest.approx(15.0)


def test_polylog_values():
    # Li_{-1}(z) = z/(1-z)^2 at z=1/2 -> 2; Li_{-2}(z) = z(1+z)/(1-z)^3 -> 6
    z = 0.5
    assert z / (1 - z) ** 2 == pytest.approx(2.0)
    assert polylog_neg_half(1) == 2
    assert z * (1 + z) / (1 - z) ** 3 == pytest.approx(6.0)
    assert polylog_neg_half(2) == 6
    assert polylog_neg_half(3) == 26  # 2(1*1 + 2*3 + 6*1)


def test_polylog_self_consistency_range():
    for m in range(1, 16):
        assert polylog_neg_half(m) > 0  # raises internally on mismatch


def test_tree_identity():
    # k=2: LHS = 3 + 2 + 3 = 8 = 2*4
    assert tree_identity_check(0)
    assert tree_identity_check(2)
    assert tree_identity_check(5)
    assert all(tree_identity_check(k) for k in range(16))


def test_log_gamma_ratio():
    assert log_gamma_ratio(5, 4) == pytest.approx(math.log(4), rel=1e-13)
    assert log_gamma_ratio(3.7, 3.7) == 0.0
    assert log_gamma_ratio(2.5, 1.5) == pytest.approx(math.log(1.5), rel=1e-13)
    with pytest.raises(ValueError):
        log_gamma_ratio(-1.0, 2.0)


def test_gamma_ratio_exact():
    # Gamma(b + n)/Gamma(b) = b(b+1)...(b+n-1)
    assert gamma_ratio_exact(Fraction(4), 3) == 4 * 5 * 6
    assert gamma_ratio_exact(Fraction(5, 2), 2) == Fraction(5, 2) * Fraction(7, 2)
    assert gamma_ratio_exact(Fraction(3), 0) == 1


def test_pochhammer_falling():
    assert pochhammer_falling(0, Fraction(2)) == 1
    assert pochhammer_falling(3, Fraction(2)) == 2 * 3 * 4
    assert pochhammer_falling(2, Fraction(1, 2)) == Fraction(1, 2) * Fraction(3, 2)
