import math
import re
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from branchpde.lifetimes import exponential_model
from branchpde.mechanism import Code, index_product
from branchpde.problems import b2_problem
from branchpde.stability import (
    Exponential,
    Factorial,
    GrowthParams,
    check_conditions,
    verify_code_bounds,
    verify_weight_dominance_algebra,
)

# b2 at T = 0.1 with lambda = 1 and delta2 = 1/rho_*(T), on [-6, 6] with 121
# points, m <= 5 and k <= 3.  The m = 0 rows, whose envelope delta1 g(0) =
# delta1 is the same in every regime, decide the verdict at delta1 = 3.
B2_T = 0.1
GRID = np.linspace(-6.0, 6.0, 121).tolist()
CODE_BOUNDS = {  # regime -> G(m), the derivative envelope per unit delta1
    Factorial(0.5, 1): lambda m: 0.5**m * math.factorial(m),
    Factorial(1, 1): lambda m: math.factorial(m),
    Factorial(1.5, 1): lambda m: 1.5**m * math.factorial(m),
    Factorial(2, 1): lambda m: 2**m * math.factorial(m),
    Exponential(1.5): lambda m: 1.5**m,
}


@pytest.mark.parametrize("regime", list(CODE_BOUNDS), ids=repr)
def test_b2_code_bounds_pass_at_delta1_6_and_fail_at_3(regime):
    oracle = b2_problem(B2_T).oracle
    delta2 = 1.0 / exponential_model(1.0).rho_star(B2_T)
    least = {}
    for delta1 in (6.0, 3.0):
        p = GrowthParams(regime, delta1, delta2, 1.0, B2_T, 1)
        rep = verify_code_bounds(oracle, p, GRID, m_max=5, k_max=3)
        assert rep["grid"] == (-6.0, 6.0, 121)
        assert rep["survival_at_T"] == pytest.approx(math.exp(-B2_T), rel=1e-15)
        assert [(row.m, row.k) for row in rep["rows"]] == [
            (m, k) for m in range(6) for k in (-1, 3)
        ]
        for row in rep["rows"]:
            # the rows hold Taylor coefficients: the envelope is delta1 G(m)/m!
            # and the verdict is that of the derivatives against delta1 G(m)
            G, fac = CODE_BOUNDS[regime](row.m), math.factorial(row.m)
            assert row.envelope == pytest.approx(delta1 * G / fac, rel=1e-15)
            assert row.passed == (row.margin >= 0)
            scale = 1.0 if row.k < 0 else max(delta2, 1.0)
            assert row.passed == (scale * row.sup_abs * fac / rep["survival_at_T"] <= delta1 * G)
        assert rep["passed"] == (delta1 == 6.0)
        least[delta1] = min(row.margin for row in rep["rows"] if row.m == 0)

    assert least[6.0] == pytest.approx(0.9713, abs=1e-4)
    assert least[3.0] == pytest.approx(-2.0287, abs=1e-4)


def test_code_bounds_compare_coefficients_past_the_float_factorial():
    # m! passes the float range at m = 171, where the rows scaled by it
    # raised OverflowError; the coefficients and delta1 F(m) stay floats
    p = GrowthParams(Factorial(0.5, 1), 6.0, 1.2, 1.0, B2_T, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_code_bounds(b2_problem(B2_T).oracle, p, [0.0], m_max=180, k_max=0)
    assert [row.m for row in rep["rows"][-2:]] == [180, 180]
    assert all(math.isfinite(row.margin) for row in rep["rows"])
    assert rep["passed"]


def test_code_bounds_call_the_oracle_once_per_code_and_match_the_per_point_sups():
    oracle = b2_problem(B2_T).oracle
    codes = []

    def counting(code, x):
        codes.append(code)
        return oracle(code, x)

    grid = np.linspace(-4.0, 4.0, 41).tolist()
    p = GrowthParams(Factorial(1.5, 1), 6.0, 1.2, 1.0, B2_T, 1)
    rep = verify_code_bounds(counting, p, grid, m_max=12, k_max=4)
    assert codes == [Code((m,), k) for m in range(13) for k in range(-1, 5)]
    # every row is what one oracle call per point and code gives
    for row in rep["rows"]:
        ks, scale = ([-1], 1.0) if row.k < 0 else (range(5), 1.2)
        sup = max(abs(oracle(Code((row.m,), k), (x,))) for x in grid for k in ks)
        scaled = scale * sup / rep["survival_at_T"]
        assert (row.sup_abs, row.margin, row.passed) == (sup, row.envelope - scaled, scaled <= row.envelope)


def test_code_bounds_refuse_d_above_1():
    p = GrowthParams(Factorial(1.5, 1), 6.0, 1.2, 1.0, B2_T, 2)
    with pytest.raises(ValueError):
        verify_code_bounds(b2_problem(B2_T).oracle, p, GRID, m_max=2)


@pytest.mark.parametrize("field, value, message", [
    ("T", -0.01, "the horizon T = -0.01 must be >= 0"),
    ("T", math.nan, "the horizon T = nan must be >= 0"),
    *[
        (field, value, f"{name} = {value!r} must be finite and > 0")
        for field, name in (("delta1", "delta1"), ("delta2", "delta2"), ("lam", "lambda"))
        for value in (math.nan, math.inf, 0.0, -1.2, Fraction(-6, 5))
    ],
    *[("d", value, f"d = {value!r} must be an int >= 1") for value in (0, 2.0, True)],
])
def test_growth_params_refuse_what_no_bound_holds_for(field, value, message):
    fields = {"delta1": 1.2, "delta2": 1.2, "lam": 1.0, "T": B2_T, "d": 1, field: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        GrowthParams(Factorial(1.5, 1), **fields)


@pytest.mark.parametrize("delta2, holds", [(Fraction(1), True), (Fraction(2, 3), False)])
def test_weight_dominance_algebra_needs_delta2_at_least_one(delta2, holds):
    # the inner weights scale with delta2: at 2/3 the directional inequality
    # 4 reads 2/3 < 1 at alpha = 0, j = 0
    p = GrowthParams(Factorial(Fraction(1), Fraction(1)), Fraction(1), delta2, 1.0, 0.1, 1)
    assert verify_weight_dominance_algebra(p, alphamax=4, jmax=2) is holds


@pytest.mark.parametrize("method, j, kind, factor", [
    ("sigma_boundary", -1, None, 2),  # 1) sigma_b(alpha,-1) <= kappa sigma_b(alpha,0)
    ("sigma_inner", -1, 0, 2),        # 2) sigma_i0(alpha,-1) <= kappa
    ("sigma_inner", 2, 0, 0),         # 3) entry kind 0
    ("sigma_inner", 2, 1, 0),         # 4) entry kind 1
    ("sigma_inner", 2, 2, 0),         # 4) entry kind 2
    ("sigma_inner", 2, 2, 1),         # nothing broken
], ids=["boundary-j-1", "inner-j-1", "kind-0", "kind-1", "kind-2", "none"])
def test_weight_dominance_algebra_refuses_each_inequality_broken_alone(
    monkeypatch, method, j, kind, factor
):
    # a passing preset (kappa = delta2 = 1, so 1 and 2 hold with equality)
    # with one weight scaled at alpha = (1, 2): that weight enters exactly
    # one of the inequalities, at one grid point
    p = GrowthParams(Factorial(Fraction(1), Fraction(1)), Fraction(1), Fraction(1), 1.0, 0.1, 2)
    w = p.build_weights()
    weight = getattr(w, method)
    at = ((1, 2), j) if kind is None else ((1, 2), j, kind)
    monkeypatch.setattr(w, method, lambda *args: weight(*args) * (factor if args == at else 1))
    monkeypatch.setattr(GrowthParams, "build_weights", lambda self: w)
    assert verify_weight_dominance_algebra(p, alphamax=3, jmax=2) is (factor == 1)


PRESET_CASES = [  # (regime, delta1, delta2): kappa = delta2 > 1, then kappa = 1
    (Factorial(Fraction(3, 2), Fraction(1)), Fraction(6, 5), Fraction(6, 5)),
    (Exponential(Fraction(3, 2)), Fraction(6, 5), Fraction(2, 3)),
    (Factorial(1.5, 1.0), 1.2, 1.2),
    (Exponential(1.5), 1.2, 0.7),
]


@pytest.mark.parametrize("regime, delta1, delta2", PRESET_CASES, ids=repr)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_preset_weights_are_the_constants_the_analyzer_reads(regime, delta1, delta2, d):
    # the sampler evaluates sigma_boundary and sigma_inner, the analyzer
    # reads F, a, s and kappa: both must be one set of weights.  The closed
    # form is built exactly from the object's constants; Fraction weights
    # must equal it, float ones be within rounding of it.
    w = GrowthParams(regime, delta1, delta2, 1.0, 0.1, d).build_weights()
    assert (w.kappa, w.a, w.s) == (max(1, delta2), delta2, delta2 / 2)
    exact = isinstance(delta2, Fraction)
    kappa, a, s = Fraction(w.kappa), Fraction(w.a), Fraction(w.s)

    def same(got, want):
        if exact:
            assert type(got) is Fraction and got == want
        else:
            assert type(got) is float and got == pytest.approx(float(want), rel=1e-15, abs=0)

    for nu in (nu for nu in product(range(5), repeat=d) if sum(nu) <= 4):
        m, prod = sum(nu), index_product(nu)
        spread = math.factorial(m) // math.prod(map(math.factorial, nu))
        for j in (-1, 0, 1, 2):
            same(w.sigma_boundary(nu, j), Fraction(w.F(m, j)) * spread / kappa)
            same(w.boundary_dominating(nu, j), Fraction(w.F(m, j)) * spread)
            if j < 0:  # the single pass-through entry
                same(w.sigma_inner(nu, j, 0), a)
                for i in range(1, d + 1):
                    with pytest.raises(ValueError):
                        w.sigma_inner(nu, j, i)
                continue
            same(w.sigma_inner(nu, j, 0), a * (d + 1) * prod)
            for i in range(1, d + 1):
                want = s * Fraction(d + 1, 6) * (2 + nu[i - 1]) * (3 + nu[i - 1]) * prod
                same(w.sigma_inner(nu, j, i), want)


def test_check_conditions_refuses_a_model_of_another_rate():
    # its split-time row would read the model's rate and its radius row p.lam
    p = GrowthParams(Factorial(1.5, 1), 1.2, 1.2, 1.0, 0.001, 1)
    with pytest.raises(ValueError, match="lambda"):
        check_conditions(p, exponential_model(50.0))
    assert check_conditions(p, exponential_model(1.0)).passed
