import math
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from branchpde.multiindex import (
    MultiIndex,
    mi_abs,
    mi_add_unit,
    mi_enumerate_below,
    mi_factorial,
    mi_leq,
    mi_sub,
    mi_upto,
)
from oracles import integer_compositions


def mi_binomial(alpha: MultiIndex, beta: MultiIndex) -> int:
    """Product of componentwise binomial coefficients, requires beta <= alpha."""
    if not mi_leq(beta, alpha):
        raise ValueError(f"{beta} is not <= {alpha}")
    out = 1
    for a, b in zip(alpha, beta):
        out *= math.comb(a, b)
    return out


def test_abs():
    assert mi_abs((0, 0, 0)) == 0
    assert mi_abs((2, 1)) == 3
    assert mi_abs((1, 0, 4)) == 5


def test_factorial():
    assert mi_factorial((0, 0)) == 1
    assert mi_factorial((2, 1)) == 2
    assert mi_factorial((3, 3)) == 36


def test_leq():
    assert mi_leq((1, 0), (2, 1))
    assert not mi_leq((1, 2), (2, 1))
    assert mi_leq((2, 1), (2, 1))
    with pytest.raises(ValueError):
        mi_leq((1,), (1, 2))


def test_binomial():
    assert mi_binomial((2, 2), (1, 1)) == 4
    assert mi_binomial((3, 1), (3, 1)) == 1
    assert mi_binomial((3, 0), (1, 0)) == 3
    with pytest.raises(ValueError):
        mi_binomial((1, 0), (2, 0))


def test_enumerate_below_lexicographic():
    assert mi_enumerate_below((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert mi_enumerate_below((0,)) == [(0,)]
    assert mi_enumerate_below((2,)) == [(0,), (1,), (2,)]


def test_upto_is_the_filtered_grid_in_lexicographic_order():
    for total in range(6):
        for d in range(1, 7):
            want = [a for a in product(range(total + 1), repeat=d) if sum(a) <= total]
            assert mi_upto(total, d) == want, (total, d)


def test_upto_walks_only_the_simplex():
    # the grid (total+1)^d has 3^20, about 3.5e9, points; the simplex 231
    start = time.perf_counter()
    out = mi_upto(2, 20)
    assert len(out) == math.comb(22, 2) == 231
    assert time.perf_counter() - start < 0.5


def test_add_unit():
    assert mi_add_unit((0, 0), 2) == (0, 1)
    assert mi_add_unit((1, 1), 1) == (2, 1)
    assert mi_add_unit((3,), 1) == (4,)
    with pytest.raises(ValueError):
        mi_add_unit((1, 1), 3)


def test_compositions_small():
    assert set(integer_compositions(2, 2)) == {(0, 2), (1, 1), (2, 0)}
    assert list(integer_compositions(0, 3)) == [(0, 0, 0)]
    assert list(integer_compositions(3, 1)) == [(3,)]


@given(st.integers(0, 8), st.integers(1, 5))
def test_composition_count_stars_and_bars(total, parts):
    comps = list(integer_compositions(total, parts))
    assert len(comps) == math.comb(total + parts - 1, parts - 1)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == total and len(c) == parts for c in comps)


@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=3).filter(lambda a: sum(a) <= 6)
)
def test_binomial_factorial_identity(alpha):
    # binom(a,b) b! (a-b)! == a! for every b <= a, exhaustively
    alpha = tuple(alpha)
    for beta in mi_enumerate_below(alpha):
        assert (
            mi_binomial(alpha, beta)
            * mi_factorial(beta)
            * mi_factorial(mi_sub(alpha, beta))
            == mi_factorial(alpha)
        )


@given(st.lists(st.integers(0, 4), min_size=1, max_size=3))
def test_enumerate_below_count(alpha):
    alpha = tuple(alpha)
    expected = math.prod(1 + a for a in alpha)
    out = mi_enumerate_below(alpha)
    assert len(out) == expected
    assert out == sorted(out)  # lexicographic and stable
