"""Growth-regime analysis: decide whether the branching representation is
integrable on a horizon, build the matching branch-weight presets, compute
maximal horizons, and evaluate explicit bounds.

Two regimes are supported, named by how fast the derivative envelopes of
the terminal data and nonlinearity may grow with the order |alpha|:

  factorial(theta, r):  envelope delta1 theta^{|alpha|} (r)(r+1)...(r+|alpha|-1)
  exponential(theta):   envelope delta1 theta^{|alpha|}

Factorial and Exponential (defined in progeny, re-exported here) own every
formula that depends on the regime alone: growth sequence, radius, horizon
threshold, side-theta left side, envelope and closed-form A' terms.
GrowthParams combines them with delta1, delta2, lambda, T and d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .lifetimes import LifetimeModel
from .mechanism import Code, index_product
from .multiindex import mi_enumerate_below, mi_upto
from . import progeny
from .progeny import Exponential, Factorial
from .tree import WeightSpec


@dataclass(frozen=True)
class GrowthParams:
    """Everything the stability formulas consume: a regime (Factorial or
    Exponential), the deltas, the lifetime rate lam, the horizon T and the
    dimension d.

    The side conditions regime.side_lhs() >= sqrt(2/d) (side_lhs is theta r,
    resp. theta) and min(side_lhs^2, 1) >= 1/((d+1) delta1 delta2) are
    exposed as booleans and rechecked by check_conditions.
    """

    regime: Factorial | Exponential
    delta1: float
    delta2: float
    lam: float
    T: float
    d: int

    def __post_init__(self):
        if self.delta1 <= 0 or self.delta2 <= 0 or self.lam <= 0 or self.d < 1:
            raise ValueError("need delta1, delta2, lambda > 0 and d >= 1")

    def radius(self) -> float:
        return self.regime.radius(self.d)

    def scaled_radius(self) -> float:
        """The horizon-condition threshold: 2^-(r+2) R (factorial), R (exp)."""
        return self.regime.horizon_threshold(self.d)

    def side_condition_theta(self) -> bool:
        return self.regime.side_lhs() >= math.sqrt(2.0 / self.d)

    def with_side_theta(self) -> GrowthParams:
        """These parameters with theta raised to theta* = max(theta,
        sqrt(2/d)/side_scale), side_scale being r (factorial) or 1
        (exponential).

        theta* is the float nearest above the quotient at which
        side_condition_theta() holds, so the check passes at it exactly.
        Where the condition already holds, self is returned unchanged.
        """
        if self.side_condition_theta():
            return self
        scale, rhs = self.regime.side_scale, math.sqrt(2.0 / self.d)
        theta = rhs / scale
        while theta * scale < rhs:
            theta = math.nextafter(theta, math.inf)
        return replace(self, regime=replace(self.regime, theta=theta))

    def side_condition_delta(self) -> bool:
        rhs = 1.0 / ((self.d + 1) * float(self.delta1) * float(self.delta2))
        return min(self.regime.side_lhs() ** 2, 1.0) >= rhs

    def build_weights(self) -> WeightSpec:
        return build_weights(self)


def build_weights(p: GrowthParams) -> WeightSpec:
    """Branch-weight preset matching the growth regime.

    boundary:  (alpha,-1) -> delta1 g(alpha)/alpha!,
               (alpha,j)  -> delta1/(delta2 v 1) g(alpha)/alpha!
    inner:     (alpha,-1) -> delta2 (the single pass-through entry),
               kind 0     -> (d+1) delta2 prod(1+alpha_k),
               kind i     -> (d+1) delta2/12 (2+alpha_i)(3+alpha_i) prod(1+alpha_k)
    kappa = max(1, delta2).

    Arithmetic follows the parameter types: Fraction parameters give exact
    Fraction weights.
    """
    g = p.regime.g()
    d1, d2 = p.delta1, p.delta2
    one = Fraction(1) if progeny._is_exact(d2) else 1.0
    kappa = d2 if float(d2) > 1 else one  # delta2 v 1
    # the leading factors, formed once in the order the products below use
    inner, twelve = (p.d + 1) * d2, 12 * one

    def sigma_boundary(alpha, j):
        base = d1 * g(alpha)
        return base if j < 0 else base / kappa

    def sigma_inner(alpha, j, kind):
        if j < 0:
            if kind != 0:
                raise ValueError("pure-derivative codes only have the kind-0 entry")
            return d2
        prod = index_product(alpha)
        if kind == 0:
            return inner * prod
        ai = alpha[kind - 1]
        return inner * (2 + ai) * (3 + ai) * prod / twelve

    return WeightSpec(sigma_boundary=sigma_boundary, sigma_inner=sigma_inner, kappa=kappa)


@dataclass(frozen=True)
class Condition:
    name: str
    lhs: float
    rhs: float
    passed: bool
    strict: bool  # True when the inequality must be strict


@dataclass(frozen=True)
class ConditionReport:
    conditions: tuple[Condition, ...]
    passed: bool


def check_conditions(p: GrowthParams, model: LifetimeModel) -> ConditionReport:
    """Evaluate the integrability conditions at horizon p.T:

      split-time:  1/rho_*(T) <= delta2
      radius:      (1-exp(-lam T)) delta1 delta2 < 2^-(r+2) R  (factorial)
                                                 < R            (exponential)
      side-theta:  theta r >= sqrt(2/d)   (resp. theta >= sqrt(2/d))
      side-delta:  min((theta r)^2, 1) >= 1/((d+1) delta1 delta2) (resp. theta^2)

    The verdict is the conjunction; each row carries its numbers.
    """
    rho_star = model.rho_star(p.T)
    split = Condition(
        "bound-split-time",
        lhs=math.inf if rho_star == 0 else 1.0 / rho_star,
        rhs=float(p.delta2),
        passed=rho_star > 0 and 1.0 / rho_star <= float(p.delta2),
        strict=False,
    )
    x = (1.0 - math.exp(-p.lam * p.T)) * float(p.delta1) * float(p.delta2)
    threshold = p.scaled_radius()
    radius = Condition(
        "bound-radius",
        lhs=x,
        rhs=threshold,
        passed=x < threshold,
        strict=True,
    )
    lhs_theta = p.regime.side_lhs()
    side_theta = Condition(
        "side-theta",
        lhs=lhs_theta,
        rhs=math.sqrt(2.0 / p.d),
        passed=p.side_condition_theta(),
        strict=False,
    )
    side_delta = Condition(
        "side-delta",
        lhs=min(lhs_theta**2, 1.0),
        rhs=1.0 / ((p.d + 1) * float(p.delta1) * float(p.delta2)),
        passed=p.side_condition_delta(),
        strict=False,
    )
    conditions = (split, radius, side_theta, side_delta)
    return ConditionReport(conditions=conditions, passed=all(c.passed for c in conditions))


@dataclass(frozen=True)
class HorizonReport:
    t_max: float
    lambda_free_envelope: float   # sup over lam of t_max: 2^-(r+2) R


def max_horizon(regime: Factorial, lam: float, d: int) -> HorizonReport:
    """Largest horizon for exponential lifetimes with the deltas at their
    floors delta1 = 1/survival(T), delta2 = 1/rho_*(T):

        T_max = (1/lam) log( 1/2 + sqrt(1/4 + lam 2^-(r+2) R) ),

    and the lambda-free envelope T < 2^-(r+2) R."""
    if not isinstance(regime, Factorial):
        raise ValueError("max_horizon is defined for the factorial regime")
    if lam <= 0:
        raise ValueError("lambda must be > 0")
    y = regime.horizon_threshold(d)
    t_max = math.log(0.5 + math.sqrt(0.25 + lam * y)) / lam
    return HorizonReport(t_max=t_max, lambda_free_envelope=y)


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
                gamma = tuple(a - b for a, b in zip(alpha, beta))
                lhs0 = (
                    sb_dom(gamma, 0)
                    * sb_dom(beta, j + 1)
                    * si(alpha, j, 0)
                    / sb_dom(alpha, j)
                )
                if not lhs0 >= 1:
                    return False
                for i in range(1, p.d + 1):
                    gp = gamma[: i - 1] + (gamma[i - 1] + 1,) + gamma[i:]
                    bp = beta[: i - 1] + (beta[i - 1] + 1,) + beta[i:]
                    lhsi = (
                        sb_dom(gp, 0)
                        * sb_dom(bp, j + 1)
                        * si(alpha, j, i)
                        / sb_dom(alpha, j)
                    )
                    if not lhsi >= 1:
                        return False
    return True


def hbound(alpha, j: int, p: GrowthParams) -> dict:
    """Explicit bound on the mean absolute path functional for a code of
    order alpha at horizon p.T: progeny.bound_report without its
    exp(-lam T) factor, in the same dict form (wh_bound is the bound).
    """
    x = (1.0 - math.exp(-p.lam * p.T)) * float(p.delta1) * float(p.delta2)
    return progeny.dominating_bound(alpha, p, x, 1.0)


@dataclass(frozen=True)
class CodeBoundRow:
    m: int
    k: int                   # -1 for the terminal-data side
    sup_abs: float           # grid sup of |d^m .|
    envelope: float          # the regime's right-hand side
    margin: float            # envelope - scaled sup (>= 0 means pass)
    passed: bool


def verify_code_bounds(
    oracle,
    p: GrowthParams,
    grid: Sequence[float],
    m_max: int,
    k_max: int = 4,
    survival_at_T: Optional[float] = None,
) -> dict:
    """Grid verification of the derivative-envelope conditions for d = 1:

      (1/rho_bar(T)) max(|d^m phi|, (delta2 v 1) sup_k |d^m f^{(k)}(phi)|)
          <= delta1 g(m)

    The sup over the real line is approximated on the supplied grid; the
    report states the grid and both delta1 conventions (envelope with the
    1/rho_bar(T) factor folded in, and the raw inequality with
    delta1' = delta1 rho_bar(T)).
    """
    if p.d != 1:
        raise ValueError("grid verification is implemented for d = 1")
    surv = survival_at_T if survival_at_T is not None else math.exp(-p.lam * p.T)
    d2v1 = max(float(p.delta2), 1.0)
    rows = []
    for m in range(m_max + 1):
        envelope = float(p.delta1) * float(p.regime.envelope(m))
        fac = math.factorial(m)
        sup_phi = max(abs(oracle(Code((m,), -1), (x,))) * fac for x in grid)
        scaled = sup_phi / surv
        rows.append(
            CodeBoundRow(m, -1, sup_phi, envelope, envelope - scaled, scaled <= envelope)
        )
        sup_f = max(
            abs(oracle(Code((m,), k), (x,))) * fac for x in grid for k in range(k_max + 1)
        )
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
