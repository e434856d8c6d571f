import math

import numpy as np
import pytest

from branchpde.combinatorics import stirling2
from branchpde.jets import Jet, exp_jet
from branchpde.mechanism import Code, offspring_set
from branchpde.problems import (
    Problem,
    _code_value_from_exact,
    b2_f_family,
    b2_phi,
    b2_problem,
    constant_problem,
    heat_apply,
    make_problem,
    mild_solution_check,
    zero_f_cosine_problem,
)
from oracles import finite_difference


def zeta_derivative(m: int, x: float) -> float:
    """m-th derivative of zeta(x) = 1/(1+e^x) by the Stirling closed form:
    sum_k (-e^x)^k k! S(m,k) / (1+e^x)^{k+1}."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    ex = math.exp(x)
    return sum(
        (-ex) ** k * math.factorial(k) * stirling2(m, k) / (1.0 + ex) ** (k + 1)
        for k in range(1, m + 1)
    )


def psi_k(k: int, z: float) -> float:
    """f^{(k)} evaluated through the terminal profile: psi_k(z) =
    4(-1)^k/(1+z)^2 - 10(-1)^k/(2^k(1+z)) + (1+z)/2^k - (1+z)^2 + 6*[k=0]."""
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie in (0, 1), got {z}")
    sgn = (-1.0) ** k
    out = (
        4.0 * sgn / (1.0 + z) ** 2
        - 10.0 * sgn / (2.0**k * (1.0 + z))
        + (1.0 + z) / 2.0**k
        - (1.0 + z) ** 2
    )
    return out + 6.0 if k == 0 else out


def pde_system_residual(problem: Problem, c: Code, t: float, x, h: float = 1e-3) -> float:
    """Residual of the code-indexed system row at an interior point,

        (d/dt + (1/2) Laplacian) u_c + sum_entries z1 prod_children u_child,

    with u_c from the exact solution: time derivative by central differences
    with step h, space derivatives exactly from the solution jet."""
    if problem.d != 1:
        raise ValueError("residual check is implemented for d = 1")
    x0 = float(x[0])
    (m,) = c.alpha

    def u_c(tt: float) -> float:
        return _code_value_from_exact(problem, c, tt, x0)

    dt = (u_c(t + h) - u_c(t - h)) / (2.0 * h)
    # (1/2) d^2/dx^2 of u_c: from the jet of the underlying code function;
    # u_c = alpha!^{-1} d^m [.], so its second derivative is
    # (m+2)(m+1) * coefficient_{m+2} * m!... expressed via raw derivatives:
    jet = problem.solution_code_jet(t, x0, m + 2, c.j)
    fac = math.factorial(m)
    second = jet.coefficient(m + 2) * math.factorial(m + 2) / fac
    lap = 0.5 * second
    nonlinear = 0.0
    for entry in offspring_set(c, problem.d):
        prod = float(entry.weight)
        for child in entry.children:
            prod *= _code_value_from_exact(problem, child, t, x0)
        nonlinear += prod
    return dt + lap + nonlinear

ID = Code((0,), -1)


def test_b2_terminal_values():
    problem = b2_problem(0.1)
    assert problem.phi((0.0,)) == pytest.approx(2.0 * math.log(1.5), rel=1e-14)
    assert problem.exact_solution(0.1, (0.0,)) == pytest.approx(0.8109302162163288)
    assert problem.exact_solution(0.0, (0.0,)) == pytest.approx(0.8439615248229055)


def test_b2_solution_range():
    problem = b2_problem(0.3)
    top = 2.0 * math.log(2.0)
    for t in np.linspace(0.0, 0.3, 7):
        for x in np.linspace(-8.0, 8.0, 33):
            u = problem.exact_solution(t, (x,))
            assert 0.0 < u < top


def test_oracle_consistency_invariant():
    for problem in (b2_problem(0.1), constant_problem(0.1), zero_f_cosine_problem(0.1)):
        for x in (-1.0, 0.0, 0.7):
            assert problem.oracle(Code((0,) * problem.d, -1), (x,)) == pytest.approx(
                problem.phi((x,)), abs=1e-12
            )
            assert problem.oracle(Code((0,) * problem.d, 2), (x,)) == pytest.approx(
                problem.f_family(2, problem.phi((x,))), abs=1e-12
            )


def test_zeta_derivative_values():
    # zeta = 1/(1+e^x): zeta'(0) = -1/4, zeta''(0) = 0
    assert zeta_derivative(1, 0.0) == pytest.approx(-0.25, rel=1e-14)
    assert zeta_derivative(2, 0.0) == pytest.approx(0.0, abs=1e-15)
    # independent jet oracle
    for m in range(1, 11):
        for x in (-2.0, 0.0, 2.0):
            jet = (exp_jet(x, m) + 1.0).reciprocal()
            assert zeta_derivative(m, x) == pytest.approx(
                jet.derivative(m), rel=1e-10, abs=1e-10
            )


def test_psi_k_matches_direct_composition():
    for x in (-1.0, 0.0, 1.0):
        z = 1.0 / (1.0 + math.exp(x))
        for k in range(6):
            assert psi_k(k, z) == pytest.approx(
                b2_f_family(k, b2_phi(x)), abs=1e-12
            )


def test_psi_k_uniformly_bounded():
    zs = np.linspace(1e-6, 1 - 1e-6, 201)
    sup = max(abs(psi_k(k, float(z))) for k in range(21) for z in zs)
    assert sup < 25.0  # finite, small


def test_psi_derivative_bound():
    # |psi_l^{(k)}(z)| <= 10 (k+1)! on (0,1), checked by jets for k,l <= 6
    for l in range(7):
        for z in np.linspace(0.05, 0.95, 19):
            base = Jet.variable(float(z), 6)
            onez = base + 1.0
            rec = onez.reciprocal()
            sgn = (-1.0) ** l
            jet = (
                rec * rec * (4.0 * sgn)
                + rec * (-10.0 * sgn * 0.5**l)
                + onez * (0.5**l)
                + onez * onez * (-1.0)
            )
            if l == 0:
                jet = jet + 6.0
            for k in range(7):
                assert abs(jet.derivative(k)) <= 10.0 * math.factorial(k + 1)


def test_jet_code_oracle_values():
    problem = b2_problem(0.1)
    assert problem.oracle(ID, (0.4,)) == pytest.approx(b2_phi(0.4), abs=1e-14)
    # phi'(0) = 2 zeta'(0)/(1+zeta(0)) = -1/3
    assert problem.oracle(Code((1,), -1), (0.0,)) == pytest.approx(
        -1.0 / 3.0, rel=1e-13
    )


def test_jet_code_oracle_vs_finite_differences():
    problem = b2_problem(0.1)
    for m in range(1, 5):
        for x in (-0.5, 0.0, 1.0):
            fd = finite_difference(b2_phi, x, m, h=1e-2) / math.factorial(m)
            assert problem.oracle(Code((m,), -1), (x,)) == pytest.approx(
                fd, abs=1e-6
            )


def test_b2_derivative_growth_envelopes():
    # grid sups on [-10, 10] against the transported-profile envelopes,
    # theta = 1.5, theta_eff = theta (1 + theta)
    problem = b2_problem(0.1)
    theta_eff = 1.5 * 2.5
    grid = np.linspace(-10.0, 10.0, 201)
    for m in range(1, 9):
        sup_phi = max(
            abs(problem.oracle(Code((m,), -1), (float(x),))) * math.factorial(m)
            for x in grid
        )
        assert sup_phi <= 2.0 * theta_eff**m * math.factorial(m - 1)
    for m in range(1, 9):
        for k in range(5):
            sup_f = max(
                abs(problem.oracle(Code((m,), k), (float(x),))) * math.factorial(m)
                for x in grid
            )
            assert sup_f <= 10.0 * theta_eff**m * math.factorial(m + 1)


def test_heat_apply():
    assert heat_apply(lambda y: 1.0, 0.7, (0.3,)) == pytest.approx(1.0, rel=1e-12)
    assert heat_apply(lambda y: float(y[0]), 0.5, (0.3,)) == pytest.approx(0.3, abs=1e-12)
    for t in (0.1, 0.5):
        assert heat_apply(lambda y: math.cos(float(y[0])), t, (0.4,)) == pytest.approx(
            math.exp(-t / 2.0) * math.cos(0.4), rel=1e-10
        )
    # d = 2 tensor rule
    val = heat_apply(lambda y: math.cos(float(y[0])) * float(y[1]), 0.3, (0.1, 0.2), quad_order=32)
    assert val == pytest.approx(math.exp(-0.15) * math.cos(0.1) * 0.2, rel=1e-9)


def test_pde_system_residual_rows():
    problem = b2_problem(0.1)
    for code in (ID, Code((0,), 0), Code((1,), -1)):
        res = pde_system_residual(problem, code, 0.05, (0.0,), h=1e-3)
        assert abs(res) <= 1e-4, f"code {code}: residual {res}"


def test_residual_detects_wrong_solution():
    # same machinery on a problem whose "exact solution" is not transported
    # correctly would not vanish; shift time the wrong way as a control
    problem = b2_problem(0.1)

    def bad_jet(t, x0, order, j):
        return problem.solution_code_jet(0.1 - t, x0, order, j)

    from dataclasses import replace

    broken = replace(problem, solution_code_jet=bad_jet)
    res = pde_system_residual(broken, ID, 0.02, (0.0,), h=1e-3)
    assert abs(res) > 1e-3


def test_mild_solution_checks():
    problem = b2_problem(0.1)
    assert mild_solution_check(problem, ID, 0.0, (0.0,)) <= 5e-4
    assert mild_solution_check(problem, Code((0,), 0), 0.0, (0.0,)) <= 5e-4
    assert mild_solution_check(problem, ID, 0.1, (0.3,)) == 0.0


def test_constant_problem_exact_solution():
    problem = constant_problem(0.5, value=0.5)
    # du/dt = -e^u backwards from u(T) = 0.5
    u0 = problem.exact_solution(0.0, (0.0,))
    assert u0 == pytest.approx(-math.log(math.exp(-0.5) + 0.5))
    assert problem.oracle(Code((3,), -1), (0.0,)) == 0.0
    assert problem.oracle(Code((0,), 4), (1.0,)) == pytest.approx(math.exp(0.5))


def test_registry():
    assert make_problem("b2", 0.2).name == "b2"
    assert make_problem("constant", 0.2).name == "constant"
    assert make_problem("zero-f-cosine", 0.2).name == "zero-f-cosine"
    with pytest.raises(KeyError):
        make_problem("unknown", 0.2)


@pytest.mark.parametrize(
    "problem",
    [b2_problem(0.5), constant_problem(0.5), zero_f_cosine_problem(0.5), zero_f_cosine_problem(0.5, d=2)],
    ids=["b2", "constant", "zero-f-cosine-d1", "zero-f-cosine-d2"],
)
def test_oracle_array_calls_agree_with_point_calls(problem):
    from itertools import product

    points = np.random.default_rng(0).uniform(-3.0, 3.0, size=(7, problem.d))
    for alpha in product(range(4), repeat=problem.d):
        for j in (-1, 0, 1, 2):
            code = Code(alpha, j)
            got = np.broadcast_to(problem.oracle(code, points), (len(points),))
            assert got.tolist() == [problem.oracle(code, tuple(p)) for p in points]
