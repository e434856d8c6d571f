"""Built-in consistency suite behind `branchpde verify`: exact identities,
recursion/closed-form equivalence, dominance, and a reduced end-to-end
solve: twelve checks, sized to finish in about a second.
"""

from __future__ import annotations

import logging
import math
from fractions import Fraction
from functools import partial

import numpy as np

from .combinatorics import polylog_neg_half, tree_identity_check
from .estimator import ProblemSetup, estimate_u
from .lifetimes import exponential_model
from .mechanism import Code, offspring_prob, offspring_set
from .multiindex import mi_abs
from . import problems, progeny, stability
from .tree import TreeBatch, evaluate_in_parts

log = logging.getLogger("branchpde")


def _check_identities(fault: bool) -> bool:
    ok = all(tree_identity_check(k) for k in range(16))
    ok = ok and all(polylog_neg_half(m) > 0 for m in range(1, 16))
    if fault:
        ok = False
    return ok


def _check_offspring_normalization() -> bool:
    from itertools import product as iproduct

    for d in (1, 2, 3):
        for alpha in iproduct(range(3), repeat=d):
            if mi_abs(alpha) > 4:
                continue
            c = Code(alpha, 0)
            total = sum(offspring_prob(c, e) for e in offspring_set(c))
            if total != 1:
                return False
    return True


def _check_recursion_equivalence() -> bool:
    """ahat_recursion against the closed form of each regime, at
    theta = r = 1, exactly."""
    theta = r = Fraction(1)
    regimes = (
        (stability.g_factorial(theta, r), partial(progeny.ahat_closed_factorial, theta, r)),
        (stability.g_exponential(theta), partial(progeny.ahat_closed_exponential, theta)),
    )
    for g, closed in regimes:
        for d in (1, 2):
            for m in range(4):
                alpha = (m,) + (0,) * (d - 1)
                table = progeny.ahat_recursion(g, d, alpha, 4)
                if any(table.values[(alpha, k)] != closed(d, alpha, k) for k in range(5)):
                    return False
    return True


def _check_radius() -> bool:
    a199 = progeny.ahat_closed_factorial(Fraction(1), Fraction(1), 1, (1,), 199)
    a200 = progeny.ahat_closed_factorial(Fraction(1), Fraction(1), 1, (1,), 200)
    ratio = float(a199 / a200)
    return abs(ratio - 2.0 / 27.0) / (2.0 / 27.0) < 0.05


def _check_progeny_law() -> bool:
    lam, horizon = 1.0, math.log(2.0)
    n = 200_000
    model = exponential_model(lam)
    parts = evaluate_in_parts(
        lambda r: TreeBatch(Code((0,), 0), 0.0, (0.0,), horizon, model, 77, r, dominating=True),
        _branches,
        range(n),
    )
    sizes = np.concatenate([values for _, values in parts])
    if np.any(sizes % 2 == 0):
        return False
    for m in range(5):
        emp = np.count_nonzero(sizes == 2 * m + 1) / n
        if abs(emp - 0.5**(m + 1)) > 0.02:
            return False
    return True


def _branches(batch: TreeBatch) -> np.ndarray:
    for _ in batch:
        pass
    return batch.branches


def _check_dominance_series() -> bool:
    p = stability.GrowthParams(
        regime=stability.Factorial(theta=Fraction(3, 2), r=Fraction(1)),
        delta1=Fraction(1),
        delta2=Fraction(1),
        lam=1.0,
        T=0.1,
        d=1,
    )
    w = p.build_weights()
    table = progeny.a_recursion(w, (1,), 0, 4)
    g = stability.g_factorial(Fraction(3, 2), Fraction(1))
    that = progeny.ahat_recursion(g, 1, (1,), 4)
    return all(
        table.values[((1,), k)] <= that.values[((1,), k)] for k in range(5)
    )


def _check_series_engine() -> bool:
    """The float series of expected_weighted_progeny, at the float
    parameters the analyzer runs, against e^{-lam h} sum_k x^k A(k) of the
    exact table at the matching rationals, to a relative 1e-12."""
    lam, h, ktrunc = 1.0, 0.01, 12
    x = 1.0 - math.exp(-lam * h)
    for alpha in ((2,), (1, 1)):
        d = len(alpha)
        p = stability.GrowthParams(stability.Factorial(1.5, 1.0), 1.2, 1.2, lam, h, d)
        exact = stability.GrowthParams(
            stability.Factorial(Fraction(3, 2), Fraction(1)), Fraction(6, 5), Fraction(6, 5), lam, h, d
        )
        table = progeny.a_recursion(exact.build_weights(), alpha, 0, ktrunc)
        want = math.exp(-lam * h) * math.fsum(x**k * float(table[alpha, k]) for k in range(ktrunc + 1))
        got = progeny.expected_weighted_progeny(alpha, 0, lam, h, p, ktrunc)["value"]
        if not math.isclose(got, want, rel_tol=1e-12):
            return False
    return True


def _check_domination_condition() -> bool:
    """The exact ratio (1+alpha_i) A'_{alpha+1_i}(k) / A'_alpha(k) against
    the recursion, and the domination verdict, on either side of side-theta."""
    Factorial, Exponential = stability.Factorial, stability.Exponential
    cases = (
        (Factorial(Fraction(2), Fraction(1)), 1, True),
        (Exponential(Fraction(1)), 1, False),
        (Exponential(Fraction(1)), 2, True),  # theta = sqrt(2/d) exactly
        (Factorial(1.5, 2.5), 2, True),
    )
    for regime, d, passes in cases:
        rep = progeny.check_domination_condition(regime, d=d)
        if rep.passed != passes or not rep.ratio_identity_checked:
            return False
    return True


def _check_weight_dominance_algebra() -> bool:
    """The preset weights satisfy the four reduced dominance inequalities,
    exactly, at factorial theta = r = 1, delta1 = delta2 = 1, d = 1."""
    p = stability.GrowthParams(
        stability.Factorial(Fraction(1), Fraction(1)), Fraction(1), Fraction(1), 1.0, 0.1, 1
    )
    return stability.verify_weight_dominance_algebra(p, alphamax=4, jmax=2)


def _check_contact_hj() -> bool:
    """The unit-normalized weighted-progeny tables satisfy the coefficient
    form of dG/ds = G^2 + |grad G|^2 / 2, exactly, for d = 1, 2, 3."""
    one = stability.g_factorial(Fraction(1), Fraction(1))  # g = 1 at d = 1
    cases = (  # (g, d, kmax, alphamax)
        (one, 1, 4, 3),
        (stability.g_exponential(Fraction(1)), 2, 3, 2),
        (one, 1, 0, 2),
        (stability.g_exponential(Fraction(3, 2)), 3, 3, 2),
    )
    return all(progeny.contact_hj_consistency(*case) for case in cases)


def _check_b2_solve() -> bool:
    T = 0.1
    problem = problems.b2_problem(T)
    setup = ProblemSetup(oracle=problem.oracle, model=exponential_model(1.0), d=1)
    est = estimate_u(Code((0,), -1), 0.0, (0.0,), T, setup, n=20_000, seed=123)
    exact = problem.exact_solution(0.0, (0.0,))
    return abs(est.mean - exact) <= 4.0 * est.std_error


def _check_mild_solution() -> bool:
    problem = problems.b2_problem(0.1)
    return problems.mild_solution_check(problem, Code((0,), -1), 0.0, (0.0,)) <= 5e-4


def run_suite(fault: bool = False) -> list[tuple[str, bool, str]]:
    """(name, passed, error) per check; error is "Type: message" for a check
    that raised (and so failed), else ""."""
    checks = [
        ("exact-identities", lambda: _check_identities(fault)),
        ("offspring-normalization", _check_offspring_normalization),
        ("recursion-closed-form", _check_recursion_equivalence),
        ("radius-ratio", _check_radius),
        ("total-progeny-law", _check_progeny_law),
        ("series-domination", _check_dominance_series),
        ("series-engine-branches", _check_series_engine),
        ("domination-ratio", _check_domination_condition),
        ("weight-dominance-algebra", _check_weight_dominance_algebra),
        ("contact-hj-identity", _check_contact_hj),
        ("mild-solution", _check_mild_solution),
        ("b2-end-to-end", _check_b2_solve),
    ]
    results = []
    for name, fn in checks:
        try:
            results.append((name, bool(fn()), ""))
        except Exception as exc:  # a crash is a failure, not an abort
            log.debug("check %s raised", name, exc_info=True)
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
