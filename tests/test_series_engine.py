"""The scalar series engine behind a_recursion, ahat_recursion and
expected_weighted_progeny, checked against the multi-index recursions it
replaced, and its float series against its exact rows.

reference_a_recursion and reference_ahat_recursion are those recursions,
kept verbatim as test-only oracles.  They cost O(prod(1+nu)) work per entry,
so the grids below stop at K = 6 where d <= 2 and at smaller K where d = 3.
Each node (nu, l) a reference reaches is checked against the engine's own
row of nu, read at l.
"""

from __future__ import annotations

import functools
import math
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from branchpde import progeny, stability
from branchpde.mechanism import index_product
from branchpde.multiindex import MultiIndex, mi_add_unit, mi_enumerate_below, mi_sub
from branchpde.progeny import a_recursion, ahat_recursion, expected_weighted_progeny
from branchpde.tree import WeightSpec


@dataclass
class SeriesTable:
    """A reference table: every node the recursion reached, and the
    arithmetic it ran in."""

    backend: str                  # "exact" | "float"
    values: dict                  # (nu, l) or (nu, j, l) -> number


def reference_a_recursion(
    w: WeightSpec,
    d: int,
    alpha: MultiIndex,
    j: int,
    kmax: int,
    collapse_j: bool = False,
    as_float: bool = False,
) -> SeriesTable:
    """Weighted-progeny coefficients A_{alpha,j}(k) for k <= kmax.

    A(0) is the inflated boundary weight kappa*sigma_boundary; A(k+1)
    convolves the two subtree coefficient sequences through the offspring
    law.  With j-independent weights, collapse_j=True drops the j axis (the
    values then do not depend on j, which tests verify on small grids).
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    alpha = tuple(alpha)
    memo: dict = {}

    def boundary(al, jj):
        v = w.boundary_dominating(al, jj)
        return float(v) if as_float else v

    def inner(al, jj, kind):
        v = w.sigma_inner(al, jj, kind)
        return float(v) if as_float else v

    def q0(al):
        q = Fraction(1, (d + 1) * index_product(al))
        return float(q) if as_float else q

    def qi(al, beta, i):
        q = Fraction(
            6 * (1 + beta[i - 1]) * (1 + al[i - 1] - beta[i - 1]),
            (d + 1) * (2 + al[i - 1]) * (3 + al[i - 1]) * index_product(al),
        )
        return float(q) if as_float else q

    def value(al, jj, k):
        key = (al, k) if collapse_j else (al, jj, k)
        if key in memo:
            return memo[key]
        if k == 0:
            out = boundary(al, jj)
        else:
            total = 0
            for beta in mi_enumerate_below(al):
                gamma = mi_sub(al, beta)
                conv0 = sum(
                    value(gamma, 0, l1) * value(beta, jj + 1, k - 1 - l1)
                    for l1 in range(k)
                )
                total += inner(al, jj, 0) * q0(al) * conv0
                for i in range(1, d + 1):
                    gp = mi_add_unit(gamma, i)
                    bp = mi_add_unit(beta, i)
                    convi = sum(
                        value(gp, 0, l1) * value(bp, jj + 1, k - 1 - l1)
                        for l1 in range(k)
                    )
                    total += inner(al, jj, i) * qi(al, beta, i) * convi
            out = total / k if as_float else total / Fraction(k)
        memo[key] = out
        return out

    for k in range(kmax + 1):
        value(alpha, j, k)
    backend = "float" if as_float else "exact"
    return SeriesTable(
        backend=backend,
        values=memo,
    )


def reference_ahat_recursion(
    g: Callable[[MultiIndex], Fraction],
    d: int,
    alpha: MultiIndex,
    kmax: int,
) -> SeriesTable:
    """Dominating coefficients: A'(0) = g(alpha) and

    A'_alpha(k+1) = 1/(k+1) sum_{beta+gamma=alpha} sum_{l1+l2=k}
                    sum_i (1+gamma_i)(1+beta_i) A'_{gamma+1_i}(l1) A'_{beta+1_i}(l2),

    exact in the arithmetic of g's values."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    alpha = tuple(alpha)
    memo: dict = {}

    def value(al, k):
        key = (al, k)
        if key in memo:
            return memo[key]
        if k == 0:
            out = g(al)
        else:
            total = 0
            for beta in mi_enumerate_below(al):
                gamma = mi_sub(al, beta)
                for i in range(1, d + 1):
                    gp = mi_add_unit(gamma, i)
                    bp = mi_add_unit(beta, i)
                    coeff = (1 + gamma[i - 1]) * (1 + beta[i - 1])
                    total += coeff * sum(
                        value(gp, l1) * value(bp, k - 1 - l1) for l1 in range(k)
                    )
            out = total / Fraction(k) if isinstance(total, (int, Fraction)) else total / k
        memo[key] = out
        return out

    for k in range(kmax + 1):
        value(alpha, k)
    return SeriesTable(
        backend="exact" if isinstance(memo[(alpha, 0)], (int, Fraction)) else "float",
        values=memo,
    )


def alphas_upto(total, d):
    return [a for a in product(range(total + 1), repeat=d) if sum(a) <= total]


THETA, R = Fraction(3, 2), Fraction(1)
GROWTH = {  # name -> (g, regime of the matching preset weights)
    "factorial": (stability.g_factorial(THETA, R), stability.Factorial(THETA, R)),
    "exponential": (stability.g_exponential(THETA), stability.Exponential(THETA)),
}


def preset(regime, d):
    """Preset weights with delta1 = delta2 = 6/5 (so kappa = 6/5)."""
    return stability.GrowthParams(regime, Fraction(6, 5), Fraction(6, 5), 1.0, 0.1, d).build_weights()


def closures(w):
    """w's weights as memoised closures, so that the references evaluate
    them node by node but spend their time in the recursion."""
    return WeightSpec(functools.cache(w.sigma_boundary), functools.cache(w.sigma_inner), w.kappa)


def reached_nodes(alpha, kmax):
    """The nodes (nu, l) that the multi-index A-hat recursion reads from
    (alpha, l), l <= kmax: alpha up to kmax, and every other nu != 0 up to
    kmax - max(e, 1), e = sum_i max(0, nu_i - alpha_i) being its excess over
    alpha."""
    nodes = {(alpha, l) for l in range(kmax + 1)}
    for nu in product(*(range(a + kmax + 1) for a in alpha)):
        if any(nu) and nu != alpha:
            excess = sum(max(0, n - a) for n, a in zip(nu, alpha))
            nodes.update((nu, l) for l in range(kmax - max(excess, 1) + 1))
    return nodes


def assert_nodes_equal(ref, value):
    """value(nu, l) equals the reference at every node (nu, l) of ref:
    exactly, and as a Fraction, for exact references; as a float within a
    relative 1e-12 for float ones."""
    for (nu, l), v in ref.items():
        got = value(nu, l)
        if type(v) is float:
            assert type(got) is float and got == pytest.approx(v, rel=1e-12, abs=0), (nu, l)
        else:
            assert type(got) is Fraction and got == v, (nu, l)


@pytest.mark.parametrize("name", sorted(GROWTH))
@pytest.mark.parametrize("d,kmax", [(1, 6), (2, 6), (3, 3)])
def test_ahat_recursion_matches_reference(name, d, kmax):
    g = GROWTH[name][0]
    cached = functools.cache(lambda nu: g(nu))  # the reference calls g node by node
    for alpha in alphas_upto(3, d):
        for k in range(kmax + 1):
            ref = reference_ahat_recursion(cached, d, alpha, k).values
            assert ref.keys() == reached_nodes(alpha, k)
            assert_nodes_equal(ref, lambda nu, l: ahat_recursion(g, d, nu, l)[nu, l])


@pytest.mark.parametrize("name", sorted(GROWTH))
@pytest.mark.parametrize("d,kmax", [(1, 6), (2, 5), (3, 3)])
def test_a_recursion_collapsed_matches_reference(name, d, kmax):
    w = preset(GROWTH[name][1], d)
    ref_w = closures(w)
    for alpha in alphas_upto(3, d):
        for k in range(kmax + 1):
            for j in (0, 1, 2) if d == 1 else (0,):
                ref = reference_a_recursion(ref_w, d, alpha, j, k, collapse_j=True).values
                assert_nodes_equal(ref, lambda nu, l: a_recursion(w, nu, j, l)[nu, l])


@pytest.mark.parametrize(
    "d,kmax,j", [(d, kmax, j) for d, kmax in ((1, 6), (2, 3)) for j in (0, 1, 2)] + [(3, 2, 2)]
)
def test_a_recursion_j_axis_matches_reference(d, kmax, j):
    # the reference keeps the j axis, (nu, j', k); at every j' it reaches,
    # a_recursion's row of nu at j' holds the value
    w = preset(GROWTH["factorial"][1], d)
    ref_w = closures(w)
    for alpha in alphas_upto(3, d):
        for k in range(kmax + 1):
            ref = reference_a_recursion(ref_w, d, alpha, j, k).values
            for (nu, jj, l), v in ref.items():
                got = a_recursion(w, nu, jj, l)[nu, l]
                assert type(got) is Fraction and got == v, (nu, jj, l)


FLOAT_REGIME = {  # the float-parameter regimes of GROWTH
    "factorial": stability.Factorial(float(THETA), float(R)),
    "exponential": stability.Exponential(float(THETA)),
}
RATIONAL_ONLY = "A and A' tables need rational parameters (ints or Fractions)"


def engine_inputs(name, d, size):
    """The engine's (F, a, c) with len(F) = size: a_recursion's under
    preset(GROWTH[name][1], d), then ahat_recursion's under GROWTH[name][0]."""
    g, regime = GROWTH[name]
    w = preset(regime, d)
    return [([w.F(m) for m in range(size)], w.a, d * w.s), ([g.F(m) for m in range(size)], 0, d)]


def float_series(F, a, c, kmax):
    """_float_series on the floats of F, a and c."""
    return progeny._float_series([float(v) for v in F], float(a), float(c), kmax)


def assert_float_rows_equal_exact(rows, F, a, c, kmax):
    """rows[l, m] is H(m, l)/m! of _exact_series on F, a and c, within a
    relative 1e-12, at every l <= kmax and m < len(F) - l: rows being the
    float series of these inputs, or of a longer F."""
    J, scale = progeny._exact_series(F, a, c, kmax)
    for l in range(kmax + 1):
        for m in range(len(F) - l):
            want = Fraction(J[l][m], scale[l] * math.factorial(m))
            assert rows[l, m] == pytest.approx(float(want), rel=1e-12, abs=0), (l, m)


@pytest.mark.parametrize("name", sorted(GROWTH))
@pytest.mark.parametrize("d,alpha,kmax", [(1, (2,), 30), (2, (0, 0), 12), (2, (1, 2), 10)])
def test_float_path_matches_exact_path(name, d, alpha, kmax):
    # the float series of the A and A-hat inputs, at every order up to
    # |alpha| and past it, equals the exact rows
    for F, a, c in engine_inputs(name, d, sum(alpha) + kmax + 1):
        assert_float_rows_equal_exact(float_series(F, a, c, kmax), F, a, c, kmax)


def test_float_path_matches_reference_float_path():
    # the float reference recursion, node by node, against the float series
    # of the same preset; and that against the exact rows
    w = preset(GROWTH["factorial"][1], 1)
    ref = reference_a_recursion(closures(w), 1, (2,), 0, 12, collapse_j=True, as_float=True).values
    F, a, c = [w.F(m) for m in range(15)], w.a, w.s
    rows = float_series(F, a, c, 12)
    assert_nodes_equal(ref, lambda nu, l: rows[l, nu[0]].item())
    assert_float_rows_equal_exact(rows, F, a, c, 12)


def test_j_minus_one():
    w = preset(GROWTH["factorial"][1], 1)
    with pytest.raises(ValueError):
        a_recursion(w, (1,), -1, 1)
    table = a_recursion(w, (1,), -1, 0)
    assert list(table.values.values()) == [w.boundary_dominating((1,), -1)]


def test_canonical_weights_satisfy_the_multi_index_identity():
    # contact_hj_consistency checks the multi-index HJ identity on tables the
    # scalar engine built, which cross-checks the collapse independently
    g = stability.g_exponential(THETA)
    assert progeny.contact_hj_consistency(g, 3, kmax=3, alphamax=2)


EWP_CASES = {  # d -> (alphas, truncations)
    1: ([(0,), (1,), (3,)], (0, 1, 6, 30)),
    2: ([(0, 0), (1, 1), (2, 1)], (0, 1, 6, 30)),
    3: ([(0, 0, 0), (1, 1, 1)], (0, 1, 6, 30)),
}


@pytest.mark.parametrize("name", sorted(GROWTH))
@pytest.mark.parametrize("d", sorted(EWP_CASES))
def test_expected_weighted_progeny_is_the_exact_table_summed(name, d):
    # the collapsed exact table is the oracle for the axis read of the
    # x-scaled float engine
    lam, h = 1.0, 0.002
    p = stability.GrowthParams(GROWTH[name][1], Fraction(6, 5), Fraction(6, 5), lam, h, d)
    x = 1.0 - math.exp(-lam * h)
    alphas, truncations = EWP_CASES[d]
    for alpha in alphas:
        exact = a_recursion(p.build_weights(), alpha, 0, max(truncations))
        for ktrunc in truncations:
            want = math.exp(-lam * h) * math.fsum(
                x**k * float(exact[alpha, k]) for k in range(ktrunc + 1)
            )
            got = expected_weighted_progeny(alpha, 0, lam, h, p, ktrunc)["value"]
            assert got == pytest.approx(want, rel=1e-12, abs=0), (alpha, ktrunc)


def test_expected_weighted_progeny_refuses_what_a_recursion_refuses():
    p = stability.GrowthParams(GROWTH["factorial"][1], Fraction(6, 5), Fraction(6, 5), 1.0, 0.002, 2)
    w = p.build_weights()
    with pytest.raises(ValueError, match="j = -1"):
        a_recursion(w, (1, 0), -1, 1)
    with pytest.raises(ValueError, match="j = -1"):
        expected_weighted_progeny((1, 0), -1, 1.0, 0.002, p, ktrunc=1)
    out = expected_weighted_progeny((1, 0), -1, 1.0, 0.002, p, ktrunc=0)
    assert out["value"] == pytest.approx(
        math.exp(-0.002) * float(w.boundary_dominating((1, 0), -1)), rel=1e-15, abs=0
    )


def test_float_paths_do_not_overflow_at_large_truncation():
    # factorial theta = r = 1, d = 1, alpha = (1,), T = 0.05: G(m) = m!
    # passes the largest float at m = 171, where a float path that carried
    # H(m, k) rather than H(m, k)/m! raised OverflowError
    one = Fraction(1)
    p = stability.GrowthParams(stability.Factorial(one, one), one, one, 1.0, 0.05, 1)
    ref = expected_weighted_progeny((1,), 0, 1.0, 0.05, p, ktrunc=160)["value"]
    assert ref == pytest.approx(1.1900, abs=1e-4)
    for ktrunc in (180, 500):
        value = expected_weighted_progeny((1,), 0, 1.0, 0.05, p, ktrunc)["value"]
        assert math.isfinite(value) and value == pytest.approx(ref, rel=1e-12, abs=0)
    # the unscaled float series stays finite at order 1 to l = 200 as well
    w = p.build_weights()
    F = [w.F(m) for m in range(202)]
    rows = float_series(F, w.a, w.s, 200)
    assert np.all(np.isfinite(rows[:, 1]))
    assert_float_rows_equal_exact(rows, F[:32], w.a, w.s, 30)


def test_float_parameter_growth_does_not_overflow():
    # with float theta and r, g is built as G(m)/m! times |nu|!/nu!, so the
    # weights stay finite where G(m) = m! theta^m passes the largest float
    one = Fraction(1)
    floats = stability.GrowthParams(stability.Factorial(1.0, 1.0), 1.0, 1.0, 1.0, 0.05, 1)
    exact = stability.GrowthParams(stability.Factorial(one, one), one, one, 1.0, 0.05, 1)
    got = expected_weighted_progeny((1,), 0, 1.0, 0.05, floats, 200)["value"]
    want = expected_weighted_progeny((1,), 0, 1.0, 0.05, exact, 200)["value"]
    assert want == pytest.approx(1.1900146, rel=1e-7, abs=0)
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    g = stability.g_factorial(1.5, 2.0)
    for nu in ((300,), (150, 150), (100, 100, 100)):
        v = g(nu)
        want = stability.g_factorial(Fraction(3, 2), Fraction(2))(nu)
        assert type(v) is float and v == pytest.approx(float(want), rel=1e-12, abs=0)
    assert stability.g_exponential(0.5)((400,)) == pytest.approx(
        float(stability.g_exponential(Fraction(1, 2))((400,))), rel=1e-12, abs=0
    )


def test_float_rows_past_the_float_range_raise():
    # factorial theta = 3/2, r = 1, d = 2, alpha = (1, 0): the unscaled float
    # rows pass the largest float at l = 184 (A at delta = 6/5) and l = 172
    # (A-hat), as the float series shows (its rows of higher order pass it
    # earlier).  The tables refuse the float parameters at any l; the float
    # series equals the exact rows, and its x-scaled rows in
    # expected_weighted_progeny stay finite inside the radius at l = 200,
    # with no numpy warning
    fp = stability.GrowthParams(stability.Factorial(1.5, 1.0), 1.2, 1.2, 1.0, 0.005, 2)
    for (F, a, c), top in zip(engine_inputs("factorial", 2, 186), (184, 172)):
        with np.errstate(over="ignore", invalid="ignore"):
            rows = float_series(F[: top + 2], a, c, top)
        assert np.all(np.isfinite(rows[:top, 1])) and rows[top, 1] == math.inf
        assert_float_rows_equal_exact(rows, F[:32], a, c, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(RATIONAL_ONLY)):
            a_recursion(fp.build_weights(), (1, 0), 0, 200)
        with pytest.raises(ValueError, match=re.escape(RATIONAL_ONLY)):
            ahat_recursion(fp.regime.g(), 2, (1, 0), 200)
        out = expected_weighted_progeny((1, 0), 0, 1.0, fp.T, fp, ktrunc=200)
        assert math.isfinite(out["value"]) and math.isfinite(out["tail_bound"])


@pytest.mark.parametrize("name", sorted(GROWTH))
def test_tables_refuse_float_parameters(name):
    # one float parameter is enough: a float theta or r reaches the engine
    # through g's terms, a float delta1 through the preset's, and a float
    # delta2 as its constants a and c.  Nothing is memoised in g.rows
    g, regime = GROWTH[name][0], FLOAT_REGIME[name]
    float_g = regime.g()
    calls = (
        lambda: ahat_recursion(float_g, 2, (1, 0), 3),
        lambda: a_recursion(stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.1, 2).build_weights(), (1, 0), 0, 3),
        lambda: a_recursion(stability.PresetWeights(g, 1.2, Fraction(6, 5), 2), (1, 0), 0, 0),
        lambda: a_recursion(stability.PresetWeights(g, Fraction(6, 5), 1.2, 2), (1, 0), 0, 3),
    )
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(RATIONAL_ONLY)):
            call()
    assert not float_g.rows


def test_benchmark_shape_ahat_tables_equal_the_closed_form():
    # the analyze-series shape: g_factorial(1, 1), d = 2, kmax 12, |alpha| <= 3;
    # every node its multi-index tables held, through a row of its own
    one = Fraction(1)
    g = stability.g_factorial(one, one)
    entries = 0
    for alpha in alphas_upto(3, 2):
        for nu, k in reached_nodes(alpha, 12):
            v = ahat_recursion(g, 2, nu, k)[nu, k]
            assert type(v) is Fraction and v == progeny.ahat_closed_factorial(one, one, 2, nu, k)
            entries += 1
    assert entries == 6302  # the tables' old entries, alpha = 0's 13 included
    # alphas of one class (|alpha|, alpha!) share each value; a second call
    # on g hands out the same objects (g memoises its rows), and a fresh g
    # builds equal but new ones
    for k in range(13):
        shared = ahat_recursion(g, 2, (1, 2), 12)[(1, 2), k]
        assert shared is ahat_recursion(g, 2, (2, 1), 12)[(2, 1), k]
        assert shared is ahat_recursion(g, 2, (1, 2), 12)[(1, 2), k]
        fresh = ahat_recursion(stability.g_factorial(one, one), 2, (1, 2), 12)[(1, 2), k]
        assert fresh == shared and fresh is not shared


@pytest.mark.parametrize("make_g", [
    lambda: stability.g_factorial(Fraction(1), Fraction(1)),
    lambda: stability.g_exponential(Fraction(3, 2)),
], ids=["factorial-exact", "exponential-exact"])
def test_tables_of_one_g_equal_tables_of_a_fresh_g(make_g):
    # the tables of every alpha share g's memoised rows, and each is the
    # table a g of its own builds, in equal Fractions
    g = make_g()
    for alpha in alphas_upto(3, 2):
        shared = ahat_recursion(g, 2, alpha, 12).values
        own = ahat_recursion(make_g(), 2, alpha, 12).values
        assert shared == own and all(type(v) is Fraction for v in shared.values())


@pytest.mark.parametrize("g, exact_g", [
    (stability.g_factorial(1.5, 2.0), stability.g_factorial(Fraction(3, 2), Fraction(2))),
    (stability.g_exponential(1.5), stability.g_exponential(Fraction(3, 2))),
], ids=["factorial", "exponential"])
def test_float_series_of_a_float_g_equals_the_exact_rows(g, exact_g):
    # a float g builds no table; the float series of its terms, on the shape
    # of the tables above, equals the exact rows of the matching rational g
    rows = progeny._float_series([g.F(m) for m in range(16)], 0, 2, 12)
    assert_float_rows_equal_exact(rows, [exact_g.F(m) for m in range(16)], 0, 2, 12)


def test_tables_of_one_g_run_the_engine_once_per_key(monkeypatch):
    # the ten benchmark-shaped tables need four (d, len(F), kmax) keys
    runs = []
    engine = progeny._exact_series

    def counting(F, a, c, kmax):
        runs.append((c, len(F), kmax))
        return engine(F, a, c, kmax)

    monkeypatch.setattr(progeny, "_exact_series", counting)
    g = stability.g_factorial(Fraction(1), Fraction(1))
    for alpha in alphas_upto(3, 2):
        ahat_recursion(g, 2, alpha, 12)
    assert sorted(runs) == [(2, n, 12) for n in (13, 14, 15, 16)]
    assert sorted(g.rows) == [(2, n, 12) for n in (13, 14, 15, 16)]
    # an equal but float d is refused, so d alone keys the rows
    with pytest.raises(ValueError, match="d = 2.0 must be an int >= 1"):
        ahat_recursion(g, 2.0, (1, 0), 12)
    assert sorted(g.rows) == [(2, n, 12) for n in (13, 14, 15, 16)]


@pytest.mark.parametrize("d,alpha,message", [
    (2, (1,), "alpha = (1,) has 1 entries, not d = 2"),
    (1, (1, 0), "alpha = (1, 0) has 2 entries, not d = 1"),
    (2.0, (1, 0), "d = 2.0 must be an int >= 1"),
    (0, (), "d = 0 must be an int >= 1"),
    (-1, (1,), "d = -1 must be an int >= 1"),
    (True, (1,), "d = True must be an int >= 1"),
])
def test_recursions_refuse_malformed_inputs(d, alpha, message):
    g = stability.g_factorial(Fraction(1), Fraction(1))
    # a_recursion reads d from its weights, so they carry the malformed d
    w = stability.PresetWeights(g, Fraction(1), Fraction(1), d)
    for call in (lambda: ahat_recursion(g, d, alpha, 3), lambda: a_recursion(w, alpha, 0, 3)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    assert not g.rows
