import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchpde import lifetimes, progeny, stability
from branchpde.combinatorics import rising_factorial
from branchpde.mechanism import index_product
from branchpde.multiindex import MultiIndex, mi_abs, mi_add_unit, mi_enumerate_below, mi_factorial, mi_sub
from branchpde.progeny import (
    OutsideRadius,
    a_recursion,
    ahat_closed_exponential,
    ahat_closed_factorial,
    ahat_recursion,
    bound_report,
    check_domination_condition,
    contact_hj_consistency,
    expected_weighted_progeny,
)
from branchpde.stability import g_exponential, g_factorial
from oracles import fuss_catalan, integer_compositions


def progeny_pmf(lam: float, horizon: float, n: int) -> float:
    """P(total progeny = n) for the binary chain: exp(-lam h)(1-exp(-lam h))^m
    at n = 2m+1, and 0 at even n."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if n < 1 or n % 2 == 0:
        return 0.0
    m = (n - 1) // 2
    p = math.exp(-lam * horizon)
    return p * (1.0 - p) ** m


def ahat_composition_form(g_star, d: int, alpha: MultiIndex, k: int):
    """Composition-sum solution of the dominating recursion for |alpha| >= 1:

    (2d)^k (k+|alpha|-1)!/(alpha!(k+1)!) *
    sum over compositions m_1+..+m_{k+1} = k+|alpha|-1 of
    prod_j (1+m_j) g_star(1+m_j).

    g_star is indexed g_star[m]; it must reach m = k+|alpha|-1 + 1.
    """
    m = mi_abs(alpha)
    if m < 1:
        raise ValueError("composition form requires |alpha| >= 1")
    order = k + m - 1
    if len(g_star) < order + 2:
        raise ValueError(f"g_star must provide indices up to {order + 1}")
    total = 0
    for comp in integer_compositions(order, k + 1):
        term = 1
        for mj in comp:
            term *= (1 + mj) * g_star[1 + mj]
        total += term
    prefactor = (
        Fraction(2 * d) ** k
        * Fraction(math.factorial(order), mi_factorial(alpha) * math.factorial(k + 1))
    )
    return prefactor * total


def alphas_upto(total, d):
    return [a for a in product(range(total + 1), repeat=d) if mi_abs(a) <= total]


def fact_params(theta, r, delta1=Fraction(1), delta2=Fraction(1), lam=1.0, T=0.05, d=1):
    return stability.GrowthParams(
        regime=stability.Factorial(theta=theta, r=r),
        delta1=delta1, delta2=delta2, lam=lam, T=T, d=d,
    )


def exp_params(theta, delta1=Fraction(1), delta2=Fraction(1), lam=1.0, T=0.05, d=1):
    return stability.GrowthParams(
        regime=stability.Exponential(theta=theta),
        delta1=delta1, delta2=delta2, lam=lam, T=T, d=d,
    )


def test_progeny_pmf():
    lh = math.log(2.0)
    assert progeny_pmf(1.0, lh, 1) == pytest.approx(0.5)
    assert progeny_pmf(1.0, lh, 2) == 0.0
    assert progeny_pmf(1.0, lh, 5) == pytest.approx(0.125)
    assert progeny_pmf(2.0, 0.0, 1) == 1.0


def test_a_recursion_base_case():
    p = fact_params(Fraction(1), Fraction(1))
    w = p.build_weights()
    table = a_recursion(w, (2,), 3, 0)
    assert table.values[((2,), 0)] == w.boundary_dominating((2,), 3)
    # the preset carries its own d, so an alpha of another length is refused
    with pytest.raises(ValueError, match="d = 1"):
        a_recursion(w, (2, 0), 0, 1)


def test_a_recursion_j_independence():
    p = fact_params(Fraction(1), Fraction(1))
    w = p.build_weights()
    reference = a_recursion(w, (1,), 0, 4)
    for j in (1, 2):
        assert a_recursion(w, (1,), j, 4).values == reference.values


def test_a_recursion_known_values():
    # theta = r = 1, deltas = 1: g == 1, A_(1)(k) = 1, 4, 35/2, 266/3, ...
    p = fact_params(Fraction(1), Fraction(1))
    table = a_recursion(p.build_weights(), (1,), 0, 4)
    vals = [table.values[((1,), k)] for k in range(5)]
    assert vals == [1, 4, Fraction(35, 2), Fraction(266, 3), Fraction(5989, 12)]


def test_ahat_recursion_hand_unrolled():
    # d=1, g == 1 (factorial theta=r=1): A'_1(1) = 4
    gf = g_factorial(Fraction(1), Fraction(1))
    table = ahat_recursion(gf, 1, (1,), 1)
    assert table.values[((1,), 0)] == 1
    assert table.values[((1,), 1)] == 4
    # d=1, g(m) = 1/m! (exponential theta=1): A'_1(1) = 2
    ge = g_exponential(Fraction(1))
    table2 = ahat_recursion(ge, 1, (1,), 1)
    assert table2.values[((1,), 1)] == 2
    # base case is g itself
    assert ahat_recursion(ge, 1, (2,), 1).values[((2,), 0)] == Fraction(1, 2)


def test_closed_factorial_spot_values():
    assert ahat_closed_factorial(Fraction(1), Fraction(1), 1, (1,), 0) == 1
    assert ahat_closed_factorial(Fraction(1), Fraction(1), 1, (1,), 1) == 4
    # alpha = 0: A'_0(0) = g(0) = 1 and A'_0(1) = d (theta r)^2
    theta, r = Fraction(3, 2), Fraction(5, 2)
    for d in (1, 2, 3):
        assert ahat_closed_factorial(theta, r, d, (0,) * d, 0) == 1
        assert ahat_closed_factorial(theta, r, d, (0,) * d, 1) == d * (theta * r) ** 2


def test_closed_exponential_spot_values():
    assert ahat_closed_exponential(Fraction(1), 1, (1,), 1) == 2
    assert ahat_closed_exponential(Fraction(1), 1, (2,), 0) == Fraction(1, 2)


@pytest.mark.parametrize("d", [1, 2])
def test_recursion_equals_closed_forms_exact(d):
    theta = r = Fraction(1)
    gf = g_factorial(theta, r)
    ge = g_exponential(theta)
    zero = (0,) * d
    tf = ahat_recursion(gf, d, zero, 6)
    te = ahat_recursion(ge, d, zero, 6)
    # each table holds its own alpha's row; gather the rows of every
    # |alpha| <= 4
    for alpha in alphas_upto(4, d):
        if mi_abs(alpha) == 0:
            continue
        tf.values.update(ahat_recursion(gf, d, alpha, 6).values)
        te.values.update(ahat_recursion(ge, d, alpha, 6).values)
        for k in range(7):
            assert tf.values[(alpha, k)] == ahat_closed_factorial(theta, r, d, alpha, k)
            assert te.values[(alpha, k)] == ahat_closed_exponential(theta, d, alpha, k)


def test_recursion_equals_closed_form_float_parameters():
    # a float parameter is read as the Fraction of its binary value, so the
    # closed forms stay exact there, within rounding of those at 13/10
    theta, r = 1.3, 2.5
    gf = g_factorial(Fraction(13, 10), Fraction(5, 2))
    ge = g_exponential(Fraction(13, 10))
    table, etable = ahat_recursion(gf, 1, (2,), 5), ahat_recursion(ge, 1, (2,), 5)
    for k in range(6):
        approx = ahat_closed_factorial(theta, r, 1, (2,), k)
        assert approx == ahat_closed_factorial(Fraction(theta), Fraction(r), 1, (2,), k)
        assert type(approx) is Fraction and approx == pytest.approx(table.values[((2,), k)], rel=1e-9)
        approx = ahat_closed_exponential(theta, 1, (2,), k)
        assert approx == ahat_closed_exponential(Fraction(theta), 1, (2,), k)
        assert type(approx) is Fraction and approx == pytest.approx(etable.values[((2,), k)], rel=1e-9)


def test_composition_form_matches_closed_forms():
    theta = r = Fraction(1)
    # factorial: g_*(m) = C(m+r-1, m) theta^m = 1 for r = 1
    for d in (1,):
        for alpha in alphas_upto(3, d):
            if mi_abs(alpha) == 0:
                continue
            for k in range(5):
                order = k + mi_abs(alpha)
                g_star = [
                    Fraction(math.comb(m + 0, m)) for m in range(order + 2)
                ]  # binom(m+r-1, m), r=1
                comp = ahat_composition_form(g_star, d, alpha, k)
                assert comp == ahat_closed_factorial(theta, r, d, alpha, k)
    # exponential: g_*(m) = theta^m / m!
    for alpha in ((1,), (2,), (3,)):
        for k in range(5):
            order = k + mi_abs(alpha)
            g_star = [Fraction(1, math.factorial(m)) for m in range(order + 2)]
            comp = ahat_composition_form(g_star, 1, alpha, k)
            assert comp == ahat_closed_exponential(theta, 1, alpha, k)
    # k = 0, single composition: the value is g_*(1)
    assert ahat_composition_form([Fraction(9), Fraction(7)], 1, (1,), 0) == 7


def test_radius_values():
    Factorial, Exponential = stability.Factorial, stability.Exponential
    assert Factorial(1.0, 1.0).radius(1) == pytest.approx(2.0 / 27.0, rel=1e-14)
    assert Factorial(2.0, 1.0).radius(1) == pytest.approx(2.0 / 27.0 / 4.0, rel=1e-14)
    assert Exponential(1.0).radius(1) == pytest.approx(1.0 / (2.0 * math.e), rel=1e-14)
    assert Exponential(math.sqrt(2.0)).radius(1) == pytest.approx(
        1.0 / (4.0 * math.e), rel=1e-12
    )


def test_radius_ratio_at_k200():
    a199 = ahat_closed_factorial(Fraction(1), Fraction(1), 1, (1,), 199)
    a200 = ahat_closed_factorial(Fraction(1), Fraction(1), 1, (1,), 200)
    ratio = float(a199 / a200)
    R = 2.0 / 27.0
    assert abs(ratio - R) / R < 0.05
    e199 = ahat_closed_exponential(Fraction(1), 1, (1,), 199)
    e200 = ahat_closed_exponential(Fraction(1), 1, (1,), 200)
    ratio_e = float(e199 / e200)
    Re = 1.0 / (2.0 * math.e)
    assert abs(ratio_e - Re) / Re < 0.05


def test_domination_condition_reports():
    rep = check_domination_condition(stability.Factorial(Fraction(2), Fraction(1)), d=1)
    assert rep.passed and rep.ratio_identity_checked and rep.regime == "factorial"
    assert rep.lhs == pytest.approx(2.0) and rep.rhs == pytest.approx(math.sqrt(2.0))
    rep2 = check_domination_condition(stability.Exponential(Fraction(1)), d=1)
    assert not rep2.passed and rep2.regime == "exponential"
    rep3 = check_domination_condition(stability.Exponential(Fraction(1)), d=2)
    assert rep3.passed  # boundary: theta = sqrt(2/d) = 1
    # float parameters: the identity is still checked in rationals
    rep4 = check_domination_condition(stability.Factorial(1.5, 2.5), d=2)
    assert rep4.passed and rep4.ratio_identity_checked and rep4.lhs == 3.75


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_forms_at_alpha_zero_equal_the_recursion(d):
    zero = (0,) * d
    factorial = ((Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(5, 2)), (Fraction(2, 3), Fraction(1, 2)))
    for theta, r in factorial:
        table = ahat_recursion(g_factorial(theta, r), d, zero, 12)
        for k in range(13):
            assert table.values[(zero, k)] == ahat_closed_factorial(theta, r, d, zero, k)
    for theta in (Fraction(1), Fraction(3, 2)):
        table = ahat_recursion(g_exponential(theta), d, zero, 12)
        for k in range(13):
            assert table.values[(zero, k)] == ahat_closed_exponential(theta, d, zero, k)


class _RatioOffAtZero(stability.Factorial):
    """A factorial regime whose ratio formula is wrong only at |alpha| = 0."""

    def ratio(self, m, k):
        return super().ratio(m, k) + (Fraction(1, 10**6) if m == 0 else 0)


def test_domination_condition_checks_the_identity_at_alpha_zero():
    good = check_domination_condition(stability.Factorial(Fraction(2), Fraction(1)), d=2)
    bad = check_domination_condition(_RatioOffAtZero(Fraction(2), Fraction(1)), d=2)
    assert good.ratio_identity_checked and not bad.ratio_identity_checked


@pytest.mark.parametrize(
    "theta,r,d", [(Fraction(3, 2), Fraction(1), 1), (Fraction(1), Fraction(1), 2)]
)
def test_series_domination_exact(theta, r, d):
    # preset A is dominated by A' entrywise on the criterion grid, exactly
    p = fact_params(theta, r, d=d)
    w = p.build_weights()
    gf = g_factorial(theta, r)
    for alpha in alphas_upto(4, d):
        ta = a_recursion(w, alpha, 0, 6)
        th = ahat_recursion(gf, d, alpha, 6)
        for k in range(7):
            assert ta.values[(alpha, k)] <= th.values[(alpha, k)]


def test_series_domination_fails_without_side_condition():
    # theta = r = 1, d = 1 violates theta r >= sqrt(2): A_0(1) = 3/2 > A'_0(1) = 1
    p = fact_params(Fraction(1), Fraction(1), d=1)
    ta = a_recursion(p.build_weights(), (0,), 0, 1)
    th = ahat_recursion(g_factorial(Fraction(1), Fraction(1)), 1, (0,), 1)
    assert ta.values[((0,), 1)] == Fraction(3, 2)
    assert th.values[((0,), 1)] == 1
    assert not ta.values[((0,), 1)] <= th.values[((0,), 1)]


def test_weight_reduction_inequalities_exact():
    # g(a-b) g(b)/g(a) prod(1+a_k) >= 1 and the directional variant
    # >= theta^2 r^2 / 2 (resp. theta^2 / 2), on |alpha| <= 5
    for gname, g, floor in (
        ("factorial", g_factorial(Fraction(3, 2), Fraction(1)), Fraction(9, 8)),
        ("exponential", g_exponential(Fraction(1)), Fraction(1, 2)),
    ):
        for alpha in alphas_upto(5, 1):
            pk = index_product(alpha)
            for beta in mi_enumerate_below(alpha):
                gamma = mi_sub(alpha, beta)
                assert g(gamma) * g(beta) / g(alpha) * pk >= 1
                lhs = (
                    Fraction((2 + alpha[0]) * (3 + alpha[0]), 12)
                    * g(mi_add_unit(gamma, 1))
                    * g(mi_add_unit(beta, 1))
                    / g(alpha)
                    * pk
                )
                assert lhs >= floor


def test_ghat0_partial_sums_below_sup():
    # factorial: partial sums of A'_0(k)|s|^k stay in (1, (1/2)((r+2)/(r+1))^{r+1})
    p = fact_params(Fraction(1), Fraction(1))
    R = p.radius()
    bound = 0.5 * (3.0 / 2.0) ** 2
    for s in (0.3 * R, 0.6 * R, 0.9 * R):
        terms = np.exp(progeny.ahat_log_terms(p, 0, 200) + np.arange(201) * math.log(s))
        partial = 0.0
        for tv in terms:
            partial += tv
            assert partial < bound
        assert partial > 1.0
    # exponential: below e/2
    pe = exp_params(Fraction(1))
    Re = pe.radius()
    for s in (0.5 * Re, 0.9 * Re):
        total = sum(np.exp(progeny.ahat_log_terms(pe, 0, 200) + np.arange(201) * math.log(s)))
        assert 1.0 < total < math.e / 2.0


def test_fuss_catalan_cross_check():
    # |alpha| = 1: A'(k) = (2d)^k theta^{2k+1} r^{k+1} |F_k(-(r+1), -(r+1))|
    theta = r = Fraction(1)
    for k in range(1, 7):
        exact = ahat_closed_factorial(theta, r, 1, (1,), k)
        fc = abs(fuss_catalan(k, -2.0, -2.0))
        assert float(exact) == pytest.approx(2.0**k * fc, rel=1e-12)


def test_expected_weighted_progeny_horizon_zero_limit():
    p = fact_params(Fraction(1), Fraction(1))
    w = p.build_weights()
    out = expected_weighted_progeny((1,), 0, 1.0, 1e-12, p, ktrunc=4)
    assert out["value"] == pytest.approx(float(w.boundary_dominating((1,), 0)), rel=1e-9)
    assert out["tail_bound"] < 1e-12


def test_expected_weighted_progeny_alpha0_wwh_bound():
    # theta r = 1 < sqrt(2) fails side-theta, so the tail is taken at
    # theta* = sqrt(2), where R(theta*) = 0.0370 is half of R(theta): at
    # h = 0.05 the dominating argument 0.0488 lies between them, and the
    # dominating series diverges there
    p = fact_params(Fraction(1), Fraction(1))
    lam = 1.0
    assert expected_weighted_progeny((0,), 0, lam, 0.05, p, ktrunc=80)["tail_bound"] == math.inf
    h = 0.02
    out = expected_weighted_progeny((0,), 0, lam, h, p, ktrunc=80)
    bound = 0.5 * (3.0 / 2.0) ** 2 * math.exp(-lam * h) * float(p.delta1)
    assert out["tail_bound"] > 0
    assert out["value"] + out["tail_bound"] < bound


def test_expected_weighted_progeny_outside_radius():
    p = fact_params(Fraction(1), Fraction(1), T=5.0)
    with pytest.raises(OutsideRadius):
        expected_weighted_progeny((1,), 0, 1.0, 5.0, p, ktrunc=10)


def test_bound_report_factorial():
    p = fact_params(Fraction(1), Fraction(1), lam=1.0, T=0.01)
    rep0 = bound_report((0,), p, 1.0, 0.01)
    rep1 = bound_report((1,), p, 1.0, 0.01)
    assert rep0["wh_bound"] > 0 and math.isfinite(rep0["wh_bound"])
    assert rep1["wh_bound"] > 0 and math.isfinite(rep1["wh_bound"])
    # grows by (2 theta d) per order, modulo the tracked constant drift
    rep2 = bound_report((2,), p, 1.0, 0.01)
    assert rep2["wh_bound"] > rep1["wh_bound"]
    # the series value is below the reported bound
    out = expected_weighted_progeny((1,), 0, 1.0, 0.01, p, ktrunc=60)
    assert out["value"] <= rep1["wh_bound"]
    out0 = expected_weighted_progeny((0,), 0, 1.0, 0.01, p, ktrunc=60)
    assert out0["value"] <= rep0["wh_bound"]


def test_bound_report_monotone_in_T():
    p0 = fact_params(Fraction(1), Fraction(1))
    prev = 0.0
    for T in (0.002, 0.004, 0.006, 0.008):
        p = fact_params(Fraction(1), Fraction(1), T=T)
        val = bound_report((1,), p, 1.0, T)["wh_bound"]
        assert val > prev
        prev = val


def test_bound_report_exponential():
    pe = exp_params(Fraction(1), T=0.01)
    rep0 = bound_report((0,), pe, 1.0, 0.01)
    rep2 = bound_report((2,), pe, 1.0, 0.01)
    # at most the paper's alpha = 0 bound delta1 e/2 exp(-lam h)
    out0 = expected_weighted_progeny((0,), 0, 1.0, 0.01, pe, ktrunc=60)
    assert out0["value"] <= rep0["wh_bound"] <= 0.5 * math.e * math.exp(-0.01)
    assert math.isfinite(rep2["wh_bound"]) and rep2["wh_bound"] > 0
    out = expected_weighted_progeny((2,), 0, 1.0, 0.01, pe, ktrunc=60)
    assert out["value"] <= rep2["wh_bound"] * (1.0 + 1e-12)


def test_bound_report_exponential_alpha1():
    # theta = 1 < sqrt(2) fails side-theta; the A' series at theta = 1 is
    # 1.0104 against the value 1.0205
    pe = exp_params(Fraction(1), T=0.01)
    rep = bound_report((1,), pe, 1.0, 0.01)
    out = expected_weighted_progeny((1,), 0, 1.0, 0.01, pe, ktrunc=20)
    assert rep["theta"] == math.sqrt(2.0)
    assert out["value"] <= rep["wh_bound"]


@pytest.mark.parametrize("d", [1, 5])
def test_bound_report_theta_star_passes_side_condition(d):
    # sqrt(2/d)/5 in floats gives theta* 5 < sqrt(2/d) at d = 1 and 5
    p = fact_params(Fraction(1, 100), Fraction(5), T=1e-4, d=d)
    rep = bound_report((1,) + (0,) * (d - 1), p, 1.0, 1e-4)
    assert rep["theta"] > 0.01
    p_star = fact_params(rep["theta"], Fraction(5), d=d)
    (side,) = [c for c in stability.check_conditions(p_star, lifetimes.exponential_model(1.0)).conditions
               if c.name == "side-theta"]
    assert side.passed


def test_bound_report_keeps_theta_where_side_condition_holds():
    p = fact_params(Fraction(3, 2), Fraction(1), T=0.002)
    rep = bound_report((2,), p, 1.0, 0.002)
    assert rep["theta"] == 1.5 and rep["radius"] == p.radius()
    # the series is summed at theta itself
    series = progeny._ghat_series_value(p, 2, rep["series_argument"])
    assert rep["wh_bound"] == pytest.approx(math.exp(-0.002) * series, rel=1e-15, abs=0)


@settings(max_examples=25, deadline=None)
@given(
    regime=st.sampled_from(["factorial", "exponential"]),
    r=st.floats(0.5, 3.0),
    d=st.sampled_from([1, 2]),
    scale=st.floats(0.5, 1.5),
    m=st.integers(0, 2),
    fracs=st.lists(st.floats(0.01, 0.95), min_size=2, max_size=2),
)
def test_bound_report_dominates_value_property(regime, r, d, scale, m, fracs):
    # theta on both sides of the side-theta threshold sqrt(2/d)/r (r = 1 in
    # the exponential regime), horizons inside the reported validity range
    def params(T):
        if regime == "factorial":
            return fact_params(scale * math.sqrt(2.0 / d) / r, r, T=T, d=d)
        return exp_params(scale * math.sqrt(2.0 / d), T=T, d=d)

    limit = params(1.0).with_side_theta().radius()
    alpha = (m,) + (0,) * (d - 1)
    prev_series = 0.0
    for frac in sorted(fracs):
        T = -math.log(1.0 - frac * limit)
        p = params(T)
        rep = bound_report(alpha, p, 1.0, T)
        out = expected_weighted_progeny(alpha, 0, 1.0, T, p, ktrunc=6)
        assert math.isfinite(rep["wh_bound"])
        assert out["value"] <= rep["wh_bound"]
        # the bound on the A' series alone grows with T; the exp(-lam T)
        # factor can make the reported bound fall
        series = progeny.dominating_bound(alpha, p, p.dominating_argument(), 1.0)["wh_bound"]
        assert series >= prev_series
        assert rep["wh_bound"] == pytest.approx(math.exp(-T) * series, rel=1e-15, abs=0)
        prev_series = series


@pytest.mark.parametrize(
    "p", [exp_params(Fraction(3, 2)), fact_params(Fraction(3, 2), Fraction(1))]
)
def test_tail_closure_covers_decreasing_ratios(p):
    # |alpha| = 5: A'(k+1)/A'(k) falls toward 1/R from above, so closing the
    # tail with x/R alone undercounts it; the closure must reach the sum
    x = 0.9 * p.radius()
    longer = sum(math.exp(axis_closed_log(p, 5, k) + k * math.log(x)) for k in range(3000))
    assert progeny._ghat_series_value(p, 5, x, ktrunc=40) >= longer


def test_contact_hj_consistency():
    one = g_factorial(Fraction(1), Fraction(1))  # g = 1 at d = 1
    assert contact_hj_consistency(one, 1, kmax=4, alphamax=3)
    assert contact_hj_consistency(g_exponential(Fraction(1)), 2, kmax=3, alphamax=2)
    assert contact_hj_consistency(one, 1, kmax=0, alphamax=2)
    # a broken sequence is detected
    skew = lambda alpha: Fraction(1 + 2 * mi_abs(alpha))
    gf = g_factorial(Fraction(1), Fraction(1))
    # consistency holds for any g by construction of the recursion, so check
    # instead that tampering with the table breaks the identity
    w_tampered = ahat_recursion(gf, 1, (0,), 2)
    assert w_tampered.values[((0,), 1)] != w_tampered.values[((0,), 2)]


@pytest.mark.parametrize(
    "regime, T",
    [(stability.Exponential(1.5), 0.001), (stability.Factorial(1.5, 1), 0.005)],
    ids=["exponential", "factorial"],
)
def test_bound_report_scales_mixed_alpha_by_multinomial(regime, T):
    # A'_alpha = H(|alpha|, k)/alpha!, so off one axis the bound and the
    # tail carry |alpha|!/alpha! against the axis-aligned alpha of the same
    # order; at exponential (1, 1) the value 2.749 exceeds the axis bound 1.385
    p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, T, 2)
    for alpha, spread in (((1, 1), 2), ((2, 1), 3), ((1, 2), 3)):
        axis = (mi_abs(alpha), 0)
        rep = bound_report(alpha, p, 1.0, T)
        out = expected_weighted_progeny(alpha, 0, 1.0, T, p, ktrunc=60)
        assert out["value"] + out["tail_bound"] <= rep["wh_bound"]
        assert rep["wh_bound"] == pytest.approx(
            spread * bound_report(axis, p, 1.0, T)["wh_bound"], rel=1e-12, abs=0
        )
        axis_tail = expected_weighted_progeny(axis, 0, 1.0, T, p, ktrunc=60)["tail_bound"]
        assert out["tail_bound"] == pytest.approx(spread * axis_tail, rel=1e-12, abs=0)


ARRAY_PARAMS = [
    (stability.Factorial(Fraction(3, 2), Fraction(1)), "factorial-r1"),
    (stability.Factorial(0.7, 2.5), "factorial-r2.5"),
    (stability.Exponential(1.5), "exponential"),
]


@pytest.mark.parametrize("regime", [r for r, _ in ARRAY_PARAMS], ids=[i for _, i in ARRAY_PARAMS])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ahat_log_terms_match_scalar_reference(regime, d):
    p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.01, d)
    for m in range(1, 6):
        scalar = [axis_closed_log(p, m, k) for k in range(2001)]
        np.testing.assert_allclose(progeny.ahat_log_terms(p, m, 2000), scalar, rtol=1e-12, atol=0)


def closed_log(regime, d, alpha, k):
    """log A'_alpha(k) in dimension d, the closed form of
    ahat_closed_factorial or ahat_closed_exponential, one k at a time: the
    scalar reference ahat_log_terms is checked against; safe for large k."""
    m, theta = mi_abs(alpha), float(regime.theta)
    if isinstance(regime, stability.Factorial):
        r = float(regime.r)
        return (
            k * math.log(2 * d)
            + (k + 1) * math.log(r)
            + (2 * k + m) * math.log(theta)
            - math.log(mi_factorial(alpha))
            + (math.lgamma((r + 2) * k + r + m) - math.lgamma((r + 1) * (k + 1)))
            - math.lgamma(k + 2)
        )
    return (
        k * math.log(2 * d)
        + (2 * k + m) * math.log(theta)
        - math.log(mi_factorial(alpha))
        - math.lgamma(k + 1)
        + (k + m - 2) * math.log(k + 1)
    )


def axis_closed_log(p, m, k):
    """log A'_{m e_1}(k) at p's regime and dimension."""
    return closed_log(p.regime, p.d, (m,) + (0,) * (p.d - 1), k)


def scalar_series_value(p, m, x, ktrunc):
    """_ghat_series_value as a scalar loop over axis_closed_log."""
    if x == 0:
        return math.exp(axis_closed_log(p, m, 0))
    logs = [axis_closed_log(p, m, k) for k in range(ktrunc + 2)]
    total = sum(math.exp(lv + k * math.log(x)) for k, lv in enumerate(logs[:-1]))
    last = math.exp(logs[ktrunc] + ktrunc * math.log(x))
    rho = max(x * math.exp(logs[ktrunc + 1] - logs[ktrunc]), x / p.radius())
    return total + last * rho / (1.0 - rho)


def scalar_tracked_constant(p, m):
    """tracked_constant as scalar loops: the sup of A'(k) y^{k+1} up to the
    first k past which no term grows, or the alpha = 0 convolution."""
    y = 2.0 ** -(float(p.regime.r) + 2) * p.radius()
    log_pref = -m * math.log(2 * float(p.regime.theta) * p.d)
    if m >= 1:
        logs = [axis_closed_log(p, m, 0)]
        for k in range(2000):
            logs.append(axis_closed_log(p, m, k + 1))
            if y * max(1.0 / p.radius(), math.exp(logs[k + 1] - logs[k])) <= 1.0:
                break
        return math.exp(max(lv + (k + 1) * math.log(y) for k, lv in enumerate(logs)) + log_pref)
    b = [math.exp(axis_closed_log(p, 1, l) + l * math.log(y)) for l in range(400)]
    terms = [1.0] + [
        p.d * y * sum(b[l] * b[k - l] for l in range(k + 1)) / (k + 1) for k in range(400)
    ]
    return math.exp(max(math.log(t) + math.log(y) + log_pref for t in terms if t > 0))


@pytest.mark.parametrize("regime", [r for r, _ in ARRAY_PARAMS], ids=[i for _, i in ARRAY_PARAMS])
@pytest.mark.parametrize("d", [1, 2])
def test_series_value_and_tracked_constant_match_scalar_loops(regime, d):
    p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.01, d)
    for m in range(1, 6):
        for frac in (0.0, 0.3, 0.9):
            x = frac * p.radius()
            assert progeny._ghat_series_value(p, m, x) == pytest.approx(
                scalar_series_value(p, m, x, 400), rel=1e-12, abs=0
            )
    if isinstance(p.regime, stability.Factorial):
        for m in range(6):
            assert progeny.tracked_constant(p, m) == pytest.approx(
                scalar_tracked_constant(p, m), rel=1e-12, abs=0
            )


@pytest.mark.parametrize("theta, r", [(Fraction(3, 2), Fraction(1)), (0.7, 2.5)])
def test_growth_sequences_build_each_order_once_with_the_same_values(theta, r):
    # rational parameters give the exact G(m)/alpha!; float ones build
    # G(m)/m! in floats, which stays within rounding of the exact value at
    # the floats' own rationals
    exact = isinstance(theta, Fraction)
    gf, ge = g_factorial(theta, r), g_exponential(theta)
    w = stability.GrowthParams(stability.Factorial(theta, r), 1.2, 2.0, 1.0, 0.01, 2).build_weights()
    first = {}
    for _ in range(2):  # the second pass reads the memo
        for alpha in alphas_upto(6, 2):
            m = mi_abs(alpha)
            fac = Fraction(mi_factorial(alpha))
            want_f = rising_factorial(Fraction(r), m) * Fraction(theta) ** m / fac
            want_e = Fraction(theta) ** m / fac
            got = first.setdefault(alpha, (gf(alpha), ge(alpha)))
            assert (gf(alpha), ge(alpha)) == got
            if exact:
                assert got == (want_f, want_e) and type(got[0]) is type(got[1]) is Fraction
            else:
                assert type(got[0]) is type(got[1]) is float
                assert got[0] == pytest.approx(float(want_f), rel=1e-14, abs=0)
                assert got[1] == pytest.approx(float(want_e), rel=1e-14, abs=0)
            assert w.sigma_boundary(alpha, -1) == 1.2 * got[0]
            assert w.sigma_boundary(alpha, 0) == 1.2 * got[0] / 2.0


@pytest.mark.parametrize("regime", [r for r, _ in ARRAY_PARAMS], ids=[i for _, i in ARRAY_PARAMS])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_series_value_stops_early_and_stays_an_upper_bound(monkeypatch, regime, d):
    # the sum stops once the tail's closure is below 1e-17 of the partial
    # sum and keeps that closure; near the radius it runs to ktrunc
    p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.01, d)
    R = p.radius()
    for m in range(1, 4):
        for frac in (0.1, 0.5, 0.9, 0.99):
            x = frac * R
            got = progeny._ghat_series_value(p, m, x)
            # the fixed 400-term sum with its closure, on the same array terms
            logs = progeny.ahat_log_terms(p, m, 401)
            terms = np.exp(logs + np.arange(402) * math.log(x))
            rho = max(x * math.exp(logs[401] - logs[400]), x / R)
            full = float(terms[:401].sum() + terms[400] * rho / (1.0 - rho))
            assert got == pytest.approx(full, rel=1e-14, abs=0)
            assert got >= math.fsum(terms[:401].tolist())
    # well inside the radius one table of 65 terms serves
    sizes = []
    original = progeny.ahat_log_terms

    def recording(params, alpha_abs, kmax):
        sizes.append(kmax)
        return original(params, alpha_abs, kmax)

    monkeypatch.setattr(progeny, "ahat_log_terms", recording)
    progeny._ghat_series_value(p, 2, 0.3 * R)
    assert max(sizes) <= 65


def test_dominating_bound_between_r_over_sqrt2_and_r_is_the_series():
    # factorial |alpha| >= 1: the bound is the A' series with its tail
    # closure up to R, past R/sqrt(2) too, where no y of the paper's
    # C(y)/(y - x) from a fixed set below R/sqrt(2) reaches
    p = stability.GrowthParams(stability.Factorial(1.5, 1), 1.2, 1.2, 1.0, 0.01, 2)
    R = p.with_side_theta().radius()
    for alpha in [(1, 0), (1, 1), (2, 1)]:
        for frac in (0.8, 0.95):
            rep = progeny.dominating_bound(alpha, p, frac * R, 0.9)
            series = stability._spread(alpha) * progeny._ghat_series_value(p, sum(alpha), frac * R)
            assert math.isfinite(rep["wh_bound"])
            assert rep["wh_bound"] == pytest.approx(1.2 * 0.9 * series, rel=1e-15, abs=0)
            # and it bounds the mean weighted progeny at that argument
            T = -math.log(1.0 - frac * R / 1.44)
            out = expected_weighted_progeny(alpha, 0, 1.0, T, p, ktrunc=60)
            assert out["value"] <= bound_report(alpha, replace(p, T=T), 1.0, T)["wh_bound"]
        for frac in (1.0, 1.2):
            with pytest.raises(OutsideRadius):
                progeny.dominating_bound(alpha, p, frac * R, 0.9)
    # below R/sqrt(2) the series stays under the bounds the paper's
    # C(y) (2 theta d)^|alpha| / (y - x) gave there over a fixed set of y
    paper = {
        ((1, 0), 0.5): 5.531025971044413,
        ((1, 0), 0.7): 161.18590898655233,
        ((2, 1), 0.5): 39.110259710444126,
        ((2, 1), 0.7): 1139.756492761088,
    }
    for (alpha, frac), above in paper.items():
        assert progeny.dominating_bound(alpha, p, frac * R, 0.9)["wh_bound"] < above


# theta = 1.5 passes side-theta at d = 1, 2; theta = 0.5 fails it, so the
# bound is taken at theta* > theta
BOUND_REGIMES = [
    (stability.Factorial(1.5, 1), "factorial"),
    (stability.Factorial(0.5, 1), "factorial-theta-star"),
    (stability.Exponential(1.5), "exponential"),
    (stability.Exponential(0.5), "exponential-theta-star"),
]


@pytest.mark.parametrize("regime", [r for r, _ in BOUND_REGIMES], ids=[i for _, i in BOUND_REGIMES])
@pytest.mark.parametrize("d", [1, 2])
def test_dominating_bound_is_the_series_and_nondecreasing_in_x(regime, d):
    p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.01, d)
    star = p.with_side_theta()
    R = star.radius()
    xs = [frac * R for frac in np.linspace(0.0, 0.99, 100).tolist()]
    orders = [(m,) + (0,) * (d - 1) for m in range(4)]
    reps = {alpha: [progeny.dominating_bound(alpha, p, x, 0.9) for x in xs] for alpha in orders}
    for alpha, row in reps.items():
        bounds = [rep["wh_bound"] for rep in row]
        assert bounds == sorted(bounds), alpha
    for m, alpha in enumerate(orders):
        for x, rep in zip(xs, reps[alpha]):
            series = progeny._ghat_series_value(star, m, x)
            assert rep["theta"] == float(star.regime.theta) and rep["radius"] == R
            assert rep["wh_bound"] == pytest.approx(1.2 * 0.9 * series, rel=1e-15, abs=0)
        with pytest.raises(OutsideRadius):
            progeny.dominating_bound(alpha, p, R, 0.9)


@pytest.mark.parametrize("regime", [r for r, _ in BOUND_REGIMES], ids=[i for _, i in BOUND_REGIMES])
@pytest.mark.parametrize("d", [1, 2])
def test_dominating_bound_is_at_most_the_papers_closed_forms(regime, d):
    p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.01, d)
    star = p.with_side_theta()
    R = star.radius()
    # alpha = 0: delta1 decay times the sup of the series over [0, R)
    if isinstance(regime, stability.Factorial):
        r = float(regime.r)
        sup0 = 0.5 * ((r + 2) / (r + 1)) ** (r + 1)
    else:
        sup0 = 0.5 * math.e
    zero = (0,) * d
    for frac in np.linspace(0.0, 0.99, 100):
        assert progeny.dominating_bound(zero, p, frac * R, 0.9)["wh_bound"] <= 1.2 * 0.9 * sup0
    if not isinstance(regime, stability.Factorial):
        return
    # factorial |alpha| >= 1: C (2 theta d)^|alpha| delta1 decay (|alpha|!/alpha!)
    # / (y - x) for x < y = 2^-(r+2) R, C = tracked_constant
    y = star.regime.horizon_threshold(star.d)
    for alpha in (a for a in alphas_upto(3, d) if sum(a)):
        m = sum(alpha)
        C = progeny.tracked_constant(star, m) * (2 * float(star.regime.theta) * d) ** m
        for frac in (0.0, 0.3, 0.6, 0.9, 0.99):
            x = frac * y
            paper = C * 1.2 * 0.9 * stability._spread(alpha) / (y - x)
            # equal at x = 0 where the sup is the k = 0 term, up to rounding
            assert progeny.dominating_bound(alpha, p, x, 0.9)["wh_bound"] <= paper * (1 + 1e-14)


def test_bounds_refuse_what_they_cannot_bound():
    p1 = fact_params(1.5, 1, T=0.01)
    p2 = fact_params(1.5, 1, T=0.01, d=2)
    refused = [
        ("T = 0.02 differs from params.T = 0.01", lambda: bound_report((1,), p1, 1.0, 0.02)),
        ("T = nan differs from params.T = 0.01", lambda: bound_report((1,), p1, 1.0, math.nan)),
        ("x = -0.001", lambda: progeny.dominating_bound((1,), p1, -0.001, 1.0)),
        ("x = nan", lambda: progeny.dominating_bound((1,), p1, math.nan, 1.0)),
        ("T = -0.01", lambda: progeny.dominating_bound((1,), fact_params(1.5, 1, lam=1.0, T=-0.01), 0.0, 1.0)),
        ("h = -0.01", lambda: expected_weighted_progeny((1,), 0, 1.0, -0.01, p1)),
        ("h = nan", lambda: expected_weighted_progeny((1,), 0, 1.0, math.nan, p1)),
        ("not d = 2", lambda: bound_report((1,), p2, 1.0, 0.01)),
        ("not d = 2", lambda: progeny.dominating_bound((1, 0, 0), p2, 0.0, 1.0)),
        ("not d = 2", lambda: progeny.dominating_bound((1,), p2, p2.dominating_argument(), 1.0)),
        ("not d = 2", lambda: expected_weighted_progeny((1, 0, 0), 0, 1.0, 0.01, p2)),
        ("not d = 1", lambda: expected_weighted_progeny((1, 0), 0, 1.0, 0.01, p1)),
    ]
    for name, call in refused:
        with pytest.raises(ValueError, match=re.escape(name)) as info:
            call()
        assert type(info.value) is ValueError


@pytest.mark.parametrize("regime", [r for r, _ in BOUND_REGIMES], ids=[i for _, i in BOUND_REGIMES])
def test_bound_report_bounds_its_params_own_rate_and_horizon(regime):
    p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.002, 2)
    x = p.dominating_argument()
    # the benchmark's call shape; check_conditions, the stability command's
    # bound rows and bound_report read the one x
    rep = bound_report((1, 0), p, p.lam, p.T)
    assert rep == progeny.dominating_bound((1, 0), p, x, math.exp(-p.lam * p.T))
    assert rep["series_argument"] == x
    cond = stability.check_conditions(p, lifetimes.exponential_model(1.0)).conditions[1]
    assert cond.name == "bound-radius" and cond.lhs == x
    for lam, T, message in (
        (2.0, p.T, "lam = 2.0 differs from params.lam = 1.0"),
        (p.lam, 0.001, "T = 0.001 differs from params.T = 0.002"),
        (p.lam, math.nan, "T = nan differs from params.T = 0.002"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            bound_report((1, 0), p, lam, T)


def test_expected_weighted_progeny_tail_is_inf_past_the_radius_at_theta_star():
    # factorial theta = 0.5, r = 1, d = 1: theta* = sqrt(2), so R(theta*) =
    # R(theta)/8; at x = 0.9 R(theta) the last term at K = 400 passes the
    # float range, and the tail is inf with no warning (math.exp raised
    # OverflowError there before)
    p = fact_params(0.5, 1, lam=1.0, T=0.01)
    h = -math.log(1.0 - 0.9 * p.radius())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expected_weighted_progeny((1,), 0, 1.0, h, p, ktrunc=400)
    assert math.isfinite(out["value"]) and out["tail_bound"] == math.inf


def test_tracked_constant_refuses_terms_that_still_grow(monkeypatch):
    # factorial theta = 1.5, r = 1, d = 1, |alpha| = 20: y A'(k+1)/A'(k) <= 1
    # first at k = 5, so a table to k = 5 cannot tell where the sup is
    p = fact_params(1.5, 1, lam=1.0, T=0.01)
    want = progeny.tracked_constant(p, 20)
    monkeypatch.setattr(progeny, "_K_PROBE", 5)
    with pytest.raises(ValueError, match=re.escape("still grow at k = 5")):
        progeny.tracked_constant(p, 20)
    # from k = 6 on the table holds that k, and the sup is the full table's
    monkeypatch.setattr(progeny, "_K_PROBE", 6)
    assert progeny.tracked_constant(p, 20) == want


@pytest.mark.parametrize("regime", [r for r, _ in BOUND_REGIMES], ids=[i for _, i in BOUND_REGIMES])
@pytest.mark.parametrize("d", [1, 2])
def test_expected_weighted_progeny_tail_is_the_closure_at_theta_star(regime, d):
    # the tail is delta1 exp(-lam h) (|alpha|!/alpha!) A'(K) x^K rho/(1 - rho),
    # rho = max(x A'(K+1)/A'(K), x/R), at theta* and K = ktrunc
    p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.01, d)
    star = p.with_side_theta()
    for frac in (0.3, 0.9):
        h = -math.log(1.0 - frac * star.radius() / 1.44)
        x = (1.0 - math.exp(-h)) * 1.2 * 1.2
        for alpha in [(m,) + (0,) * (d - 1) for m in range(4)] + [(1,) * d]:
            m = sum(alpha)
            for ktrunc in (1, 20, 60):
                got = expected_weighted_progeny(alpha, 0, 1.0, h, p, ktrunc)["tail_bound"]
                # the same closure over the array's log terms, and over the
                # scalar closed form, whose logs agree with them to rounding
                # that the closure's 1/(1 - rho) amplifies
                table = progeny.ahat_log_terms(star, m, ktrunc + 1)
                scalar = [axis_closed_log(star, m, k) for k in (ktrunc, ktrunc + 1)]
                for logs, rel in ((table[ktrunc:], 1e-15), (scalar, 1e-11)):
                    last = math.exp(logs[0] + ktrunc * math.log(x))
                    rho = max(x * math.exp(logs[1] - logs[0]), x / star.radius())
                    closure = last * (rho / (1.0 - rho)) if rho < 1.0 else math.inf
                    want = math.exp(-h) * 1.2 * stability._spread(alpha) * closure
                    assert got == pytest.approx(want, rel=rel, abs=0), (alpha, ktrunc)
    assert expected_weighted_progeny((1,) * d, 0, 1.0, 0.0, p, 20)["tail_bound"] == 0.0


@pytest.mark.parametrize("regime", [r for r, _ in ARRAY_PARAMS], ids=[i for _, i in ARRAY_PARAMS])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_ahat_log_terms_are_read_only_and_equal_a_fresh_build(regime, d):
    p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.01, d)
    for m in range(4):
        for K in (0, 16, 65, 2000):
            got = progeny.ahat_log_terms(p, m, K)
            fresh = progeny._ahat_log_terms.__wrapped__(regime, d, m, K)
            assert got.shape == (K + 1,) and got.tobytes() == fresh.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0


def test_a_horizon_sweep_builds_each_log_term_table_once(monkeypatch):
    # the analyze-series sweep: conditions and bounds over 20 horizons per
    # (regime, d); the closed-form tables depend on (regime, d, |alpha|, K)
    # only, so each is built once however many horizons read it
    keys = []
    original = progeny.ahat_log_terms

    def recording(params, alpha_abs, kmax):
        keys.append((params.regime, params.d, alpha_abs, kmax))
        return original(params, alpha_abs, kmax)

    monkeypatch.setattr(progeny, "ahat_log_terms", recording)
    progeny._ahat_log_terms.cache_clear()
    model = lifetimes.exponential_model(1.0)
    passed = 0
    for regime in (stability.Factorial(1.5, 1), stability.Exponential(1.5)):
        for d in (1, 2):
            for i in range(20):
                p = stability.GrowthParams(regime, 1.2, 1.2, 1.0, 0.01 * (i + 0.5) / 20, d)
                if stability.check_conditions(p, model).passed:
                    passed += 1
                    for alpha in product(range(4), repeat=d):
                        if sum(alpha) <= 3:
                            bound_report(alpha, p, 1.0, p.T)
    info = progeny._ahat_log_terms.cache_info()
    assert passed and len(keys) > 20 * len(set(keys))
    assert info.misses == len(set(keys)) and info.hits == len(keys) - info.misses


@pytest.mark.parametrize("theta, delta1, T, m", [
    (1e150, 1.2, 0.0, 3),     # A'(0) = theta^3/3! at x = 0
    (4e6, 1.2, 1e-15, 50),    # the terms pass the float range
    (1e5, 1e300, 0.0, 2),     # the series is finite, delta1 times it is not
])
def test_dominating_bound_refuses_a_bound_past_the_float_range(theta, delta1, T, m):
    p = stability.GrowthParams(stability.Exponential(theta), delta1, 1.2, 1.0, T, 1)
    x = p.dominating_argument()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OverflowError, match=re.escape(f"order {m} at alpha = ({m},), x = {x!r}")):
            progeny.dominating_bound((m,), p, x, 1.0)
        with pytest.raises(OverflowError, match="is not a finite float"):
            bound_report((m,), p, 1.0, T)
        assert math.isfinite(progeny.dominating_bound((m - 1,), p, x, 1.0)["wh_bound"])


@pytest.mark.parametrize("m", [10, 49])
def test_series_whose_tangent_bound_passes_the_float_range_is_summed_without_warnings(m):
    # the first ratio x A'(1)/A'(0) is above 1, so the tangent at k = 0 passes
    # e^650 while every term stays finite
    p = stability.GrowthParams(stability.Exponential(4e6), 1.2, 1.2, 1.0, 1e-15, 1)
    x = p.dominating_argument()
    logs = progeny.ahat_log_terms(p, m, 2)
    assert logs[0] + 400 * (logs[1] - logs[0] + math.log(x)) > 650
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = progeny._ghat_series_value(p, m, x)
    assert value == pytest.approx(scalar_series_value(p, m, x, 400), rel=1e-12, abs=0)
    assert np.geterr()["over"] == "warn"
