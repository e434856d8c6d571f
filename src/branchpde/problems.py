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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .estimator import CodeOracle
from .jets import Jet, exp_jet
from .mechanism import Code, offspring_set
from .multiindex import mi_abs

_HERMGAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class Problem:
    """A problem with its code oracle.  The built-in oracles follow the
    array contract of `CodeOracle`: they take one point or an (m, d) array
    of points, and a code whose value does not depend on the point returns
    one float for all of them."""

    name: str
    d: int
    T: float
    phi: Callable[[Sequence[float]], float]
    f_family: Callable[[int, float], float]          # (j, u) -> f^{(j)}(u)
    oracle: CodeOracle
    exact_solution: Optional[Callable[[float, Sequence[float]], float]] = None
    # jet of u(t, .) restricted to the first coordinate, when available
    solution_code_jet: Optional[Callable[[float, float, int, int], Jet]] = None


def _first_coordinate(x) -> np.ndarray:
    """x_1 of one point (a 0-d array) or of each row of an (m, d) array."""
    return np.asarray(x, dtype=float)[..., 0]


# --- the functional-nonlinearity problem -----------------------------------

def _zeta_jet(x: float, order: int) -> Jet:
    """Jet of zeta(x) = 1/(1 + e^x)."""
    return (exp_jet(x, order) + 1.0).reciprocal()


def _b2_phi_jet(x: float, order: int) -> Jet:
    """Jet of phi = 2 log(1 + zeta)."""
    return (_zeta_jet(x, order) + 1.0).log() * 2.0


def _b2_psi_jet(j: int, x: float, order: int) -> Jet:
    """Jet of f^{(j)}(phi) = psi_j(zeta)."""
    z = _zeta_jet(x, order)
    onez = z + 1.0
    rec = onez.reciprocal()
    sgn = (-1.0) ** j
    out = (
        rec * rec * (4.0 * sgn)
        + rec * (-10.0 * sgn * 0.5**j)
        + onez * (0.5**j)
        + onez * onez * (-1.0)
    )
    if j == 0:
        out = out + 6.0
    return out


def b2_phi(x: float) -> float:
    """phi(x), elementwise for an array x."""
    return 2.0 * np.log((2.0 + np.exp(x)) / (1.0 + np.exp(x)))


def b2_f_family(j: int, u: float) -> float:
    """f^{(j)}(u), elementwise for an array u."""
    out = (
        4.0 * (-1.0) ** j * np.exp(-u)
        - 10.0 * (-0.5) ** j * np.exp(-0.5 * u)
        + 0.5**j * np.exp(0.5 * u)
        - np.exp(u)
    )
    return out + 6.0 if j == 0 else out


def b2_problem(T: float) -> Problem:
    """The functional-nonlinearity problem on d = 1 with exact solution."""
    if T <= 0:
        raise ValueError(f"horizon T must be > 0, got {T}")

    def oracle_fn(code: Code, x) -> float:
        (m,) = code.alpha
        x0 = _first_coordinate(x)
        if code.j < 0:
            return b2_phi(x0) if m == 0 else _b2_phi_jet(x0, m).coefficient(m)
        if m == 0:
            return b2_f_family(code.j, b2_phi(x0))
        return _b2_psi_jet(code.j, x0, m).coefficient(m)

    def exact(t: float, x) -> float:
        return b2_phi(float(x[0]) - (T - t))

    def code_jet(t: float, x0: float, order: int, j: int) -> Jet:
        # u(t, .) = phi(. - (T - t)): shift the terminal jets
        shifted = x0 - (T - t)
        if j < 0:
            return _b2_phi_jet(shifted, order)
        return _b2_psi_jet(j, shifted, order)

    return Problem(
        name="b2",
        d=1,
        T=T,
        phi=lambda x: b2_phi(float(x[0])),
        f_family=b2_f_family,
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
        phi=lambda x: value,
        f_family=lambda j, u: math.exp(u),
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
        phi=lambda x: math.cos(float(x[0])),
        f_family=lambda j, u: 0.0,
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

def heat_apply(v: Callable, t: float, x, quad_order: int = 64) -> float:
    """Heat semigroup action by tensor Gauss-Hermite quadrature:
    S(t) v(x) = pi^{-d/2} int v(x + sqrt(2t) u) e^{-|u|^2} du."""
    if t < 0:
        raise ValueError("t must be >= 0")
    x = np.asarray(x, float)
    if t == 0:
        return float(v(x))
    if quad_order not in _HERMGAUSS_CACHE:
        _HERMGAUSS_CACHE[quad_order] = np.polynomial.hermite.hermgauss(quad_order)
    nodes, weights = _HERMGAUSS_CACHE[quad_order]
    d = x.size
    scale = math.sqrt(2.0 * t)
    if d == 1:
        total = sum(
            w * v(np.array([x[0] + scale * u])) for u, w in zip(nodes, weights)
        )
        return float(total / math.sqrt(math.pi))
    total = 0.0
    idx = np.zeros(d, dtype=int)
    # tensor product loop; quad_order^d evaluations
    from itertools import product as iproduct

    for combo in iproduct(range(quad_order), repeat=d):
        w = 1.0
        y = x.copy()
        for axis, i in enumerate(combo):
            w *= weights[i]
            y[axis] += scale * nodes[i]
        total += w * v(y)
    return float(total / math.pi ** (d / 2.0))


def _code_value_from_exact(problem: Problem, c: Code, t: float, x0: float) -> float:
    """u_c(t, x) for d = 1 problems with a solution jet: coefficient |alpha|
    of the code's jet."""
    if problem.solution_code_jet is None:
        raise ValueError(f"problem {problem.name!r} has no solution jet")
    (m,) = c.alpha
    return problem.solution_code_jet(t, x0, max(m, 1), c.j).coefficient(m)


def mild_solution_check(
    problem: Problem,
    c: Code,
    t: float,
    x,
    quad_order: int = 64,
    time_nodes: int = 32,
) -> float:
    """Discrepancy of the integral (mild) form at (t, x):

        | u_c(t,x) - S(T-t) c(phi)(x)
          - sum_entries z1 int_t^T S(s-t) (prod u_child(s, .))(x) ds |

    with u's from the exact-solution jets, the time integral by composite
    Simpson on `time_nodes` intervals and the semigroup by Gauss-Hermite."""
    if problem.d != 1:
        raise ValueError("mild-solution check is implemented for d = 1")
    if time_nodes % 2 != 0:
        raise ValueError("time_nodes must be even for Simpson")
    T = problem.T
    x0 = float(x[0])
    lhs = _code_value_from_exact(problem, c, t, x0)
    terminal = heat_apply(lambda y: problem.oracle(c, y), T - t, (x0,), quad_order)
    if T == t:
        return abs(lhs - terminal)

    entries = offspring_set(c, problem.d)

    def integrand(s: float) -> float:
        total = 0.0
        for entry in entries:
            def prod_at(y) -> float:
                out = 1.0
                for child in entry.children:
                    out *= _code_value_from_exact(problem, child, s, float(y[0]))
                return out

            total += float(entry.weight) * heat_apply(prod_at, s - t, (x0,), quad_order)
        return total

    hstep = (T - t) / time_nodes
    simpson = integrand(t) + integrand(T)
    for i in range(1, time_nodes):
        simpson += (4.0 if i % 2 == 1 else 2.0) * integrand(t + i * hstep)
    integral = simpson * hstep / 3.0
    return abs(lhs - terminal - integral)
