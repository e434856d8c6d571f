"""Growth-regime analysis: decide whether the branching representation is
integrable on a horizon, build the matching branch-weight presets, compute
maximal horizons, and evaluate explicit bounds.

Two regimes are supported, named by how fast the derivative envelopes of
the terminal data and nonlinearity may grow with the order |alpha|:

  factorial(theta, r):  envelope delta1 theta^{|alpha|} (r)(r+1)...(r+|alpha|-1)
  exponential(theta):   envelope delta1 theta^{|alpha|}

Factorial and Exponential (defined in progeny, re-exported here) own every
formula that depends on the regime alone: growth sequence, radius, horizon
threshold, side-theta condition and closed-form A' terms.
GrowthParams combines them with delta1, delta2, lambda, T and d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .lifetimes import LifetimeModel
from .mechanism import Code
from .multiindex import mi_add_unit, mi_enumerate_below, mi_sub, mi_upto
from . import progeny
from .progeny import Exponential, Factorial


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

    def build_weights(self) -> progeny.PresetWeights:
        """Branch-weight preset matching the growth regime: the weights of
        progeny.PresetWeights for the regime's growth sequence, the deltas
        and d, kappa = max(1, delta2).  Fraction parameters give exact
        Fraction weights."""
        return progeny.PresetWeights(self.regime.g(), self.delta1, self.delta2, self.d)


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


def hbound(alpha, p: GrowthParams) -> dict:
    """Explicit bound on the mean absolute path functional for a code of
    order alpha at horizon p.T: progeny.bound_report without its
    exp(-lam T) factor, in the same dict form (wh_bound is the bound), at
    the same argument p.dominating_argument().
    """
    return progeny.dominating_bound(alpha, p, p.dominating_argument(), 1.0)


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
    oracle is called once per code, on the whole grid.
    """
    if p.d != 1:
        raise ValueError("grid verification is implemented for d = 1")
    surv = math.exp(-p.lam * p.T)
    d2v1 = max(float(p.delta2), 1.0)
    F = p.regime.g().F
    # the grid as one (n, 1) array, but a grid of one point as that point:
    # the oracle's jets run on floats for it, several times faster than on
    # arrays of one element
    points = np.asarray(grid, dtype=float)[:, None]
    if len(points) == 1:
        points = points[0]

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
