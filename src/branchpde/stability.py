"""Growth-regime analysis: decide whether the branching representation is
integrable on a horizon, build the matching branch-weight presets, compute
maximal horizons, and evaluate explicit bounds.

Two regimes are supported, named by how fast the derivative envelopes of
the terminal data and nonlinearity may grow with the order |alpha|:

  factorial(theta, r):  envelope delta1 theta^{|alpha|} (r)(r+1)...(r+|alpha|-1)
  exponential(theta):   envelope delta1 theta^{|alpha|}

Factorial and Exponential own every formula that depends on the regime
alone: growth sequence, radius, horizon threshold, side-theta condition and
closed-form A' terms.  The growth sequences (GrowthSequence, g_factorial,
g_exponential) and the preset built on them (PresetWeights) are defined
here too.  GrowthParams combines them with delta1, delta2, lambda, T and d.
progeny builds its series and bounds on these; this module imports no
progeny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

import numpy as np

from .lifetimes import LifetimeModel
from .mechanism import Code, index_product
from .multiindex import (
    MultiIndex,
    mi_abs,
    mi_add_unit,
    mi_enumerate_below,
    mi_factorial,
    mi_sub,
    mi_upto,
)


class _Regime:
    """What the two growth regimes share.  Each regime fixes the growth
    sequence g, the radius R(d) of the A' generating function, the
    horizon threshold, the closed-form A' terms and the exact ratio
    (1+alpha_i) A'_{alpha+1_i}(k)/A'_alpha(k).
    side_scale is r (factorial) or 1 (exponential)."""

    def side_theta(self, d: int) -> tuple[float, float, bool]:
        """The side-theta condition theta side_scale >= sqrt(2/d) in
        dimension d: its left side, its right side and its verdict."""
        lhs, rhs = float(self.theta) * self.side_scale, math.sqrt(2.0 / d)
        return lhs, rhs, lhs >= rhs


@dataclass(frozen=True)
class Factorial(_Regime):
    """Envelopes delta1 theta^m (r)(r+1)...(r+m-1) of the order-m derivatives."""

    theta: float
    r: float
    name: ClassVar[str] = "factorial"

    @property
    def side_scale(self) -> float:
        return float(self.r)

    def g(self) -> GrowthSequence:
        return g_factorial(self.theta, self.r)

    def radius(self, d: int) -> float:
        """(r+1)^{r+1} / (2 theta^2 r (r+2)^{r+2} d)."""
        if self.theta <= 0 or self.r <= 0 or d <= 0:
            raise ValueError("need theta, r, d > 0")
        theta, r = float(self.theta), float(self.r)
        return (r + 1) ** (r + 1) / (2 * theta**2 * r * (r + 2) ** (r + 2) * d)

    def horizon_threshold(self, d: int) -> float:
        """2^-(r+2) R, the bound of the radius condition."""
        return 2.0 ** (-(float(self.r) + 2)) * self.radius(d)

    def ratio(self, m: int, k: int):
        """((r+2)k + r + |alpha|) theta, for |alpha| = m."""
        return ((self.r + 2) * k + self.r + m) * self.theta

    def closed_log_terms(self, logs, m: int, k: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
        """logs plus the regime part of log A'_{m e_1}(k) over the array k,
        given log j! for j <= max(k) + 1: the Gamma ratio, r^{k+1} and 1/(k+1)!."""
        r = float(self.r)
        return (
            logs
            + (k + 1) * math.log(r)
            + _lgamma((r + 2) * k + r + m)
            - _lgamma((r + 1) * (k + 1))
            - log_fact[1:]
        )


@dataclass(frozen=True)
class Exponential(_Regime):
    """Envelopes delta1 theta^m of the order-m derivatives."""

    theta: float
    name: ClassVar[str] = "exponential"
    side_scale: ClassVar[float] = 1.0

    def g(self) -> GrowthSequence:
        return g_exponential(self.theta)

    def radius(self, d: int) -> float:
        """1/(2 e theta^2 d)."""
        if self.theta <= 0 or d <= 0:
            raise ValueError("need theta, d > 0")
        return 1.0 / (2.0 * math.e * float(self.theta) ** 2 * d)

    def horizon_threshold(self, d: int) -> float:
        """R itself, the bound of the radius condition."""
        return self.radius(d)

    def ratio(self, m: int, k: int):
        """(k+1) theta, for |alpha| = m."""
        return (k + 1) * self.theta

    def closed_log_terms(self, logs, m: int, k: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
        """logs plus the regime part of log A'_{m e_1}(k) over the array k,
        given log j! for j <= max(k) + 1: (k+1)^{k+m-2}/k!."""
        return logs - log_fact[:-1] + (k + m - 2) * np.log(k + 1)


@dataclass(frozen=True)
class GrowthSequence:
    """The growth sequence g(nu) = G(|nu|)/nu! of a regime, called as g(nu),
    with its terms F(m) = G(m)/m! as data: F(0) = 1 and F(m) = F(m-1)
    step(m), each built once.  Rational parameters give Fractions, from
    which ahat_recursion builds its tables.  Float ones give floats for the
    float series and the sampler's weights, and no table: g(nu) is F(|nu|)
    |nu|!/nu!, so neither G(m) nor nu! is formed, and g stays finite where
    its value does (a float G(m) = m! theta^m passes the largest float near
    m = 170)."""

    # fields, not methods, so that a wrapper of g made by functools.wraps
    # (which copies the instance dict) still carries F and shares the rows
    F: Callable[[int], object]
    # ahat_recursion's exact row functions, one per (d, len(F), kmax)
    rows: dict = field(default_factory=dict, compare=False, repr=False)

    def __call__(self, alpha: MultiIndex):
        return self.F(sum(alpha)) * _spread(alpha)


def g_factorial(theta, r) -> GrowthSequence:
    """Growth sequence (|a|+r-1)_{|a|} theta^{|a|}/a!  (series of
    (1-theta<x>)^-r): step(m) = theta (r+m-1)/m."""
    exact = _is_exact(theta) and _is_exact(r)
    if exact:
        theta, r = Fraction(theta), Fraction(r)
    return _growth_sequence(lambda m: theta * (r + m - 1) / m, exact)


def g_exponential(theta) -> GrowthSequence:
    """Growth sequence theta^{|a|}/a!  (series of exp(theta<x>)): step(m) = theta/m."""
    exact = _is_exact(theta)
    if exact:
        theta = Fraction(theta)
    return _growth_sequence(lambda m: theta / m, exact)


def _growth_sequence(step: Callable[[int], object], exact: bool) -> GrowthSequence:
    number = Fraction if exact else float
    F = [number(1)]

    def term(m: int):
        while len(F) <= m:
            F.append(number(F[-1] * step(len(F))))
        return F[m]
    return GrowthSequence(term)


@dataclass
class PresetWeights:
    """The branch-weight preset of a growth sequence g (see
    GrowthParams.build_weights), with the members that the sampler's
    weighted progenies (tree.weighted_progeny_batch) read:

    boundary:  (alpha,-1) -> delta1 g(alpha),
               (alpha,j)  -> delta1 g(alpha)/kappa
    inner:     (alpha,-1) -> delta2 (the single pass-through entry),
               kind 0     -> (d+1) delta2 prod(1+alpha_k),
               kind i     -> (d+1) delta2/12 (2+alpha_i)(3+alpha_i) prod(1+alpha_k)
    kappa = max(1, delta2).

    The analyzer reads its constants instead: kappa sigma_boundary(nu, j) =
    F(|nu|, j) |nu|!/nu!, sigma_inner(nu, j, 0) = a (d+1) prod(1+nu) and
    sigma_inner(nu, j, i) = s (d+1)/6 (2+nu_i)(3+nu_i) prod(1+nu) for j >= 0,
    with a = delta2 and s = delta2/2.  Arithmetic follows the parameter
    types: Fraction parameters give exact Fraction weights.
    """

    g: GrowthSequence
    delta1: object
    delta2: object
    d: int

    def __post_init__(self):
        one = Fraction(1) if _is_exact(self.delta2) else 1.0
        self.kappa = self.delta2 if float(self.delta2) > 1 else one  # delta2 v 1
        # the leading factors, formed once in the order sigma_inner uses them
        self._inner, self._twelve = (self.d + 1) * self.delta2, 12 * one
        self.a, self.s = self.delta2, self.delta2 / (2 * one)

    def F(self, m: int, j: int = 0):
        """delta1 G(m)/m!, times kappa for j = -1."""
        v = self.delta1 * self.g.F(m)
        return v if j >= 0 else self.kappa * v

    def sigma_boundary(self, alpha, j):
        base = self.delta1 * self.g(alpha)
        return base if j < 0 else base / self.kappa

    def boundary_dominating(self, alpha, j):
        return self.kappa * self.sigma_boundary(alpha, j)

    def sigma_inner(self, alpha, j, kind):
        if j < 0:
            if kind != 0:
                raise ValueError("pure-derivative codes only have the kind-0 entry")
            return self.delta2
        prod = index_product(alpha)
        if kind == 0:
            return self._inner * prod
        ai = alpha[kind - 1]
        return self._inner * (2 + ai) * (3 + ai) * prod / self._twelve


def _is_exact(v) -> bool:
    # a float is ruled out first: isinstance(v, Fraction) is an ABC check,
    # slow for the floats that fail it
    return not isinstance(v, float) and isinstance(v, (int, Fraction))


def _spread(alpha: MultiIndex) -> int:
    """|alpha|!/alpha!, the factor A'_alpha(k)/A'_{|alpha| e_1}(k)."""
    return math.factorial(mi_abs(alpha)) // mi_factorial(alpha)


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x), dtype=float, count=len(x))


@dataclass(frozen=True)
class GrowthParams:
    """Everything the stability formulas consume: a regime (Factorial or
    Exponential), the deltas, the lifetime rate lam, the horizon T and the
    dimension d; check_conditions states the integrability conditions on
    them.  A delta or lam that is not finite and > 0, a negative or NaN T,
    or a d that is not an int >= 1 raises ValueError.
    """

    regime: Factorial | Exponential
    delta1: float
    delta2: float
    lam: float
    T: float
    d: int

    def __post_init__(self):
        for name, value in (("delta1", self.delta1), ("delta2", self.delta2), ("lambda", self.lam)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} = {value!r} must be finite and > 0")
        if not self.T >= 0:
            raise ValueError(f"the horizon T = {self.T!r} must be >= 0")
        if type(self.d) is not int or self.d < 1:
            raise ValueError(f"d = {self.d!r} must be an int >= 1")

    def radius(self) -> float:
        return self.regime.radius(self.d)

    def dominating_argument(self) -> float:
        """x(T) = (1-exp(-lam T)) delta1 delta2, the argument at which the
        dominating series is compared with its radius."""
        return (1.0 - math.exp(-self.lam * self.T)) * float(self.delta1) * float(self.delta2)

    def with_side_theta(self) -> GrowthParams:
        """These parameters with theta raised to theta* = max(theta,
        sqrt(2/d)/side_scale), side_scale being r (factorial) or 1
        (exponential).

        theta* is the float nearest above the quotient at which the
        regime's side_theta(d) holds, so the check passes at it exactly.
        Where the condition already holds, self is returned unchanged.
        """
        _, rhs, holds = self.regime.side_theta(self.d)
        if holds:
            return self
        regime = replace(self.regime, theta=rhs / self.regime.side_scale)
        while not regime.side_theta(self.d)[2]:
            regime = replace(regime, theta=math.nextafter(regime.theta, math.inf))
        return replace(self, regime=regime)

    def build_weights(self) -> PresetWeights:
        """Branch-weight preset matching the growth regime: the weights of
        PresetWeights for the regime's growth sequence, the deltas
        and d, kappa = max(1, delta2).  Fraction parameters give exact
        Fraction weights."""
        return PresetWeights(self.regime.g(), self.delta1, self.delta2, self.d)


@dataclass(frozen=True)
class Condition:
    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class ConditionReport:
    conditions: tuple[Condition, ...]
    passed: bool


def check_conditions(p: GrowthParams, model: LifetimeModel) -> ConditionReport:
    """Evaluate the integrability conditions at horizon p.T:

      split-time:  1/rho_*(T) <= delta2   (1/rho_* read as inf at rho_* = 0)
      radius:      (1-exp(-lam T)) delta1 delta2 < 2^-(r+2) R  (factorial)
                                                 < R            (exponential)
      side-theta:  theta r >= sqrt(2/d)   (resp. theta >= sqrt(2/d))
      side-delta:  min((theta r)^2, 1) >= 1/((d+1) delta1 delta2) (resp. theta^2)

    The radius row's left side is p.dominating_argument(), the side-theta
    row is p.regime.side_theta(p.d).  Each row carries its two sides and
    their verdict; the report passes when every row does.  A model whose
    rate is not p.lam raises ValueError.
    """
    if model.lam != p.lam:
        raise ValueError(f"the lifetime model's lambda = {model.lam!r} differs from lambda = {p.lam!r}")
    rho_star = model.rho_star(p.T)
    split, delta2 = math.inf if rho_star == 0 else 1.0 / rho_star, float(p.delta2)
    x, threshold = p.dominating_argument(), p.regime.horizon_threshold(p.d)
    side, side_rhs, side_holds = p.regime.side_theta(p.d)
    squared, floor = min(side**2, 1.0), 1.0 / ((p.d + 1) * float(p.delta1) * delta2)
    conditions = (
        Condition("bound-split-time", split, delta2, split <= delta2),
        Condition("bound-radius", x, threshold, x < threshold),
        Condition("side-theta", side, side_rhs, side_holds),
        Condition("side-delta", squared, floor, squared >= floor),
    )
    return ConditionReport(conditions=conditions, passed=all(c.passed for c in conditions))


def max_horizon(regime: Factorial, lam: float, d: int) -> float:
    """Largest horizon for exponential lifetimes with the deltas at their
    floors delta1 = 1/survival(T), delta2 = 1/rho_*(T):

        T_max = (1/lam) log( 1/2 + sqrt(1/4 + lam 2^-(r+2) R) ),

    which stays below its sup over lam, the lambda-free envelope
    regime.horizon_threshold(d) = 2^-(r+2) R."""
    if not isinstance(regime, Factorial):
        raise ValueError("max_horizon is defined for the factorial regime")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    y = regime.horizon_threshold(d)
    return math.log(0.5 + math.sqrt(0.25 + lam * y)) / lam


def verify_weight_dominance_algebra(p: GrowthParams, alphamax: int = 5, jmax: int = 3) -> bool:
    """Exact check of the four reduced dominance inequalities for the built
    preset on the grid beta <= alpha, |alpha| <= alphamax, j <= jmax:

      1) sigma_b(alpha,-1) <= kappa sigma_b(alpha,0)
      2) sigma_i0(alpha,-1) <= kappa
      3) 1 <= sb~(alpha-beta,0) sb~(beta,j+1) si0~(alpha,j)/sb~(alpha,j)
      4) 1 <= sb~(alpha-beta+1_i,0) sb~(beta+1_i,j+1) si_i~(alpha,j)/sb~(alpha,j)

    where sb~ = kappa sigma_b and si~ = sigma_i.
    """
    w = p.build_weights()
    sb_dom, si = w.boundary_dominating, w.sigma_inner
    for alpha in mi_upto(alphamax, p.d):
        if not w.sigma_boundary(alpha, -1) <= w.kappa * w.sigma_boundary(alpha, 0):
            return False
        if not si(alpha, -1, 0) <= w.kappa:
            return False
        for j in range(jmax + 1):
            for beta in mi_enumerate_below(alpha):
                gamma = mi_sub(alpha, beta)
                # the children of entry kind 0 (inequality 3) and of kind i (4)
                children = [(gamma, beta)] + [
                    (mi_add_unit(gamma, i), mi_add_unit(beta, i)) for i in range(1, p.d + 1)
                ]
                for i, (left, right) in enumerate(children):
                    lhs = sb_dom(left, 0) * sb_dom(right, j + 1) * si(alpha, j, i)
                    if not lhs / sb_dom(alpha, j) >= 1:
                        return False
    return True


@dataclass(frozen=True)
class CodeBoundRow:
    m: int
    k: int                   # -1 for the terminal-data side
    sup_abs: float           # grid sup of |d^m .|/m!, the Taylor coefficient
    envelope: float          # the regime's right-hand side, delta1 F(m)
    margin: float            # envelope - scaled sup (>= 0 means pass)
    passed: bool


def verify_code_bounds(oracle, p: GrowthParams, grid: Sequence[float], m_max: int, k_max: int = 4) -> dict:
    """Grid verification of the derivative-envelope conditions for d = 1,
    on Taylor coefficients (d^m ./m!, what the oracle returns):

      (1/rho_bar(T)) max(|d^m phi|, (delta2 v 1) sup_k |d^m f^{(k)}(phi)|)/m!
          <= delta1 F(m)

    with F(m) = G(m)/m! the regime's growth term, so that no m! is formed.
    The sup over the real line is approximated on the supplied grid; the
    report states the grid and both delta1 conventions (envelope with the
    1/rho_bar(T) factor folded in, and the raw inequality with
    delta1' = delta1 rho_bar(T)), with rho_bar(T) = exp(-lam T).  The
    oracle is called once per code, on the grid as one (n, 1) array of
    points, a grid of one point included.
    """
    if p.d != 1:
        raise ValueError("grid verification is implemented for d = 1")
    surv = math.exp(-p.lam * p.T)
    d2v1 = max(float(p.delta2), 1.0)
    F = p.regime.g().F
    points = np.asarray(grid, dtype=float)[:, None]

    def sup_abs(code: Code) -> float:
        return float(np.max(np.abs(oracle(code, points))))

    rows = []
    for m in range(m_max + 1):
        envelope = float(p.delta1) * float(F(m))
        sup_phi = sup_abs(Code((m,), -1))
        scaled = sup_phi / surv
        rows.append(
            CodeBoundRow(m, -1, sup_phi, envelope, envelope - scaled, scaled <= envelope)
        )
        sup_f = max(sup_abs(Code((m,), k)) for k in range(k_max + 1))
        scaled_f = d2v1 * sup_f / surv
        rows.append(
            CodeBoundRow(m, k_max, sup_f, envelope, envelope - scaled_f, scaled_f <= envelope)
        )
    return {
        "rows": rows,
        "passed": all(r.passed for r in rows),
        "grid": (min(grid), max(grid), len(grid)),
        "survival_at_T": surv,
        "conventions": {
            "with_survival_factor": float(p.delta1),
            "raw_delta1": float(p.delta1) * surv,
        },
    }
