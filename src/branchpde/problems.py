"""Built-in problems with analytic structure: a functional-nonlinearity
equation with exact solution, jet-backed derivative oracles,
heat-semigroup quadrature, and a mild-solution check of the code-indexed
PDE system.

The central built-in ("b2") is

    du/dt + (1/2) u_xx + 4 e^{-u} - 10 e^{-u/2} + e^{u/2} - e^u + 6 = 0,
    u(T, x) = phi(x) = 2 log((2 + e^x)/(1 + e^x)),

whose solution is the terminal profile transported in time:
u(t, x) = phi(x - (T - t)), taking values in (0, 2 log 2).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .estimator import CodeOracle
from .jets import Jet, exp_jet
from .mechanism import Code, offspring_set
from .multiindex import mi_abs


@dataclass(frozen=True)
class Problem:
    """A problem with its code oracle, phi being its value at (0,...,0)/-1.
    The built-in oracles follow the array contract of `CodeOracle`: they
    take one point or an (m, d) array of points, and a code whose value
    does not depend on the point returns one float for all of them."""

    name: str
    d: int
    T: float
    oracle: CodeOracle
    exact_solution: Optional[Callable[[float, Sequence[float]], float]] = None
    # jet of u(t, .) restricted to the first coordinate, when available
    solution_code_jet: Optional[Callable[[float, float, int, int], Jet]] = None


def _first_coordinate(x) -> np.ndarray:
    """x_1 of one point (a 0-d array) or of each row of an (m, d) array."""
    return np.asarray(x, dtype=float)[..., 0]


# --- the functional-nonlinearity problem -----------------------------------

# the largest x with a finite e^x.  b2 reads e^min(x, _EXP_ARG_MAX), which changes
# no finite value; past it, zeta = 1/(1 + e^x) < 6e-309 is as good as its true value
_EXP_ARG_MAX = math.log(sys.float_info.max)


def _onez_jet(x: float, order: int) -> Jet:
    """Jet of 1 + zeta(x), zeta(x) = 1/(1 + e^x)."""
    return (exp_jet(np.minimum(x, _EXP_ARG_MAX), order) + 1.0).reciprocal() + 1.0


def b2_phi(x: float) -> float:
    """phi(x), elementwise for an array x."""
    ex = np.exp(np.minimum(x, _EXP_ARG_MAX))
    return 2.0 * np.log((2.0 + ex) / (1.0 + ex))


def b2_f_family(j: int, u: float) -> float:
    """f^{(j)}(u), elementwise for an array u."""
    out = (
        4.0 * (-1.0) ** j * np.exp(-u)
        - 10.0 * (-0.5) ** j * np.exp(-0.5 * u)
        + 0.5**j * np.exp(0.5 * u)
        - np.exp(u)
    )
    return out + 6.0 if j == 0 else out


def _b2_coefficient(j: int, x, m: int):
    """Coefficient m of the Taylor jet at x of phi = 2 log(1 + zeta) (j = -1)
    or of f^{(j)}(phi) = psi_j(zeta) (j >= 0), elementwise for an array x:
    the closed forms at m = 0, and above it coefficient m of the jets of
    1 + zeta and its reciprocal, with no other coefficient of the products
    formed."""
    if m == 0:
        phi = b2_phi(x)
        return phi if j < 0 else b2_f_family(j, phi)
    onez = _onez_jet(x, m)
    if j < 0:
        return onez.log().coefficient(m) * 2.0
    # psi_j = 4 sgn (1+zeta)^-2 - 10 sgn 2^-j (1+zeta)^-1 + 2^-j (1+zeta)
    # - (1+zeta)^2 (+ 6 for j = 0, in coefficient 0 only), sgn = (-1)^j
    rec = onez.reciprocal()
    sgn = (-1.0) ** j
    return (
        rec.product_coefficient(rec, m) * (4.0 * sgn)
        + rec.coeffs[m] * (-10.0 * sgn * 0.5**j)
        + onez.coeffs[m] * 0.5**j
        + onez.product_coefficient(onez, m) * -1.0
    )


def b2_problem(T: float) -> Problem:
    """The functional-nonlinearity problem on d = 1 with exact solution.

    Its oracle returns coefficient m = |alpha| of the code's Taylor jet at
    x_1, phi's (j = -1) or psi_j's; the exact solution and solution_code_jet
    read the same coefficients at the transported point x - (T - t).  Every
    one comes from _b2_coefficient, so the oracle and the solution agree
    bit for bit there."""
    if T <= 0:
        raise ValueError(f"horizon T must be > 0, got {T}")

    def oracle_fn(code: Code, x) -> float:
        (m,) = code.alpha
        x0 = _first_coordinate(x)
        if x0.shape == (1,):
            # one row runs as its point: the jets run several times faster
            # on floats than on arrays of one element
            return np.reshape(_b2_coefficient(code.j, x0[0], m), 1)
        return _b2_coefficient(code.j, x0, m)

    def exact(t: float, x) -> float:
        return _b2_coefficient(-1, float(x[0]) - (T - t), 0)

    def code_jet(t: float, x0: float, order: int, j: int) -> Jet:
        # u(t, .) = phi(. - (T - t)): the terminal coefficients, shifted
        shifted = x0 - (T - t)
        return Jet([_b2_coefficient(j, shifted, m) for m in range(order + 1)])

    return Problem(
        name="b2",
        d=1,
        T=T,
        oracle=CodeOracle(oracle_fn),
        exact_solution=exact,
        solution_code_jet=code_jet,
    )


# --- other built-ins --------------------------------------------------------

def constant_problem(T: float, value: float = 0.5) -> Problem:
    """Constant terminal data with nonlinearity e^u; space drops out and the
    solution solves u' = -e^u backwards: u(t) = -log(e^{-value} + (T-t))."""
    if T <= 0:
        raise ValueError(f"horizon T must be > 0, got {T}")

    def oracle_fn(code: Code, x) -> float:
        if mi_abs(code.alpha) > 0:
            return 0.0
        return value if code.j < 0 else math.exp(value)

    return Problem(
        name="constant",
        d=1,
        T=T,
        oracle=CodeOracle(oracle_fn),
        exact_solution=lambda t, x: -math.log(math.exp(-value) + (T - t)),
    )


def zero_f_cosine_problem(T: float, d: int = 1) -> Problem:
    """phi(x) = cos(x_1) with f = 0: the solution is the heat flow
    e^{-(T-t)/2} cos(x_1); every f-code value vanishes."""
    if T <= 0:
        raise ValueError(f"horizon T must be > 0, got {T}")

    def oracle_fn(code: Code, x) -> float:
        if code.j >= 0:
            return 0.0
        m1 = code.alpha[0]
        if any(a > 0 for a in code.alpha[1:]):
            return 0.0
        # d^m cos = cos(x + m pi/2)
        return np.cos(_first_coordinate(x) + m1 * math.pi / 2.0) / math.factorial(m1)

    return Problem(
        name="zero-f-cosine",
        d=d,
        T=T,
        oracle=CodeOracle(oracle_fn),
        exact_solution=lambda t, x: math.exp(-(T - t) / 2.0) * math.cos(float(x[0])),
    )


REGISTRY = {
    "b2": b2_problem,
    "constant": constant_problem,
    "zero-f-cosine": zero_f_cosine_problem,
}


def make_problem(name: str, T: float, **kwargs) -> Problem:
    if name not in REGISTRY:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(REGISTRY)}")
    return REGISTRY[name](T, **kwargs)


# --- quadrature and consistency checks --------------------------------------

QUAD_ORDER = 64  # Gauss-Hermite nodes of heat_apply
TIME_INTERVALS = 32  # composite Simpson intervals of mild_solution_check, an even number


@functools.cache
def _hermgauss() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(QUAD_ORDER)


def heat_apply(v: Callable, t: float, x) -> float:
    """Heat semigroup action in d = 1 by Gauss-Hermite quadrature on
    QUAD_ORDER nodes: S(t) v(x) = pi^{-1/2} int v(x + sqrt(2t) u) e^{-u^2} du."""
    if t < 0:
        raise ValueError("t must be >= 0")
    x = np.asarray(x, float)
    if x.size != 1:
        raise ValueError("heat_apply is implemented for d = 1")
    if t == 0:
        return float(v(x))
    nodes, weights = _hermgauss()
    scale = math.sqrt(2.0 * t)
    total = sum(w * v(np.array([x[0] + scale * u])) for u, w in zip(nodes, weights))
    return float(total / math.sqrt(math.pi))


def _code_value_from_exact(problem: Problem, c: Code, t: float, x0: float) -> float:
    """u_c(t, x) for d = 1 problems with a solution jet: coefficient |alpha|
    of the code's jet."""
    if problem.solution_code_jet is None:
        raise ValueError(f"problem {problem.name!r} has no solution jet")
    (m,) = c.alpha
    return problem.solution_code_jet(t, x0, max(m, 1), c.j).coefficient(m)


def mild_solution_check(problem: Problem, c: Code, t: float, x) -> float:
    """Discrepancy of the integral (mild) form at (t, x):

        | u_c(t,x) - S(T-t) c(phi)(x)
          - sum_entries z1 int_t^T S(s-t) (prod u_child(s, .))(x) ds |

    with u's from the exact-solution jets, the time integral by composite
    Simpson on TIME_INTERVALS intervals and the semigroup by heat_apply."""
    if problem.d != 1:
        raise ValueError("mild-solution check is implemented for d = 1")
    T = problem.T
    x0 = float(x[0])
    lhs = _code_value_from_exact(problem, c, t, x0)
    terminal = heat_apply(lambda y: problem.oracle(c, y), T - t, (x0,))
    if T == t:
        return abs(lhs - terminal)

    entries = offspring_set(c)

    def integrand(s: float) -> float:
        total = 0.0
        for entry in entries:
            def prod_at(y) -> float:
                out = 1.0
                for child in entry.children:
                    out *= _code_value_from_exact(problem, child, s, float(y[0]))
                return out

            total += float(entry.weight) * heat_apply(prod_at, s - t, (x0,))
        return total

    hstep = (T - t) / TIME_INTERVALS
    simpson = integrand(t) + integrand(T)
    for i in range(1, TIME_INTERVALS):
        simpson += (4.0 if i % 2 == 1 else 2.0) * integrand(t + i * hstep)
    integral = simpson * hstep / 3.0
    return abs(lhs - terminal - integral)
