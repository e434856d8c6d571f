"""Branch lifetime models: density rho, survival rho-bar, inverse-CDF
sampling, and validation of the positivity/exponential-domination
assumptions the solver relies on.

Required properties (checked by `validate_assumption_h`):
  i)  rho_*(T) = min_{s in [0,T]} rho(s) > 0, and
  ii) rho_bar(r) >= exp(-lambda r) for all r >= 0, for the model's lambda.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class LifetimeModel:
    """A lifetime law.  `density`, `survival` and `inverse_cdf` are
    elementwise: each takes a float and returns a float, or takes an array
    and returns the array of its elements' values, equal element by element
    to the float calls."""

    kind: str
    lam: float                                # rate in rho_bar(r) >= exp(-lam r)
    density: Callable[[float], float]         # rho
    survival: Callable[[float], float]        # rho_bar
    inverse_cdf: Callable[[float], float]
    rho_star: Callable[[float], float]        # rho_*(T), the min of rho over [0, T]


def exponential_model(lam: float) -> LifetimeModel:
    """Exponential lifetimes: rho(s) = lam e^{-lam s}; the survival bound
    holds with equality."""
    if lam <= 0:
        raise ValueError(f"rate lambda must be > 0, got {lam}")

    # [()] turns the 0-d result of a float argument back into a scalar
    def density(s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= 0, lam * np.exp(-lam * np.maximum(s, 0.0)), 0.0)[()]

    def survival(r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= 0, np.exp(-lam * np.maximum(r, 0.0)), 1.0)[()]

    return LifetimeModel(
        kind="exponential",
        lam=lam,
        density=density,
        survival=survival,
        inverse_cdf=lambda u: -np.log1p(-np.asarray(u, dtype=float))[()] / lam,
        rho_star=lambda T: lam * math.exp(-lam * T),
    )


def tabulated_model(points: Sequence[tuple[float, float]], lam: float) -> LifetimeModel:
    """Density from tabulated (r, rho) pairs with linear interpolation.

    The table must start at r=0 and is normalized to unit mass; the density
    is 0 beyond the last knot.  Knots and values must be finite real
    numbers: a boolean, a string or NaN/inf is refused, not converted.
    Sampling inverts the piecewise-quadratic CDF by a binary search over the
    knots plus a quadratic solve on the segment.
    """
    if lam <= 0:
        raise ValueError(f"rate lambda must be > 0, got {lam}")
    rs = [_finite_real("knot", r) for r, _ in points]
    vs = [_finite_real("density value", v) for _, v in points]
    if len(rs) < 2 or rs[0] != 0.0 or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("need increasing knots starting at r=0")
    if any(v < 0 for v in vs):
        raise ValueError("density values must be >= 0")
    mass = sum(
        0.5 * (vs[i] + vs[i + 1]) * (rs[i + 1] - rs[i]) for i in range(len(rs) - 1)
    )
    if mass <= 0:
        raise ValueError("tabulated density has zero mass")
    vs = [v / mass for v in vs]
    # cdf at knots
    cdf = [0.0]
    for i in range(len(rs) - 1):
        cdf.append(cdf[-1] + 0.5 * (vs[i] + vs[i + 1]) * (rs[i + 1] - rs[i]))
    rs_a, vs_a, cdf_a = np.array(rs), np.array(vs), np.array(cdf)

    def segment(knots: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Index i of the knot segment [knots[i], knots[i+1]] holding s."""
        return np.maximum(np.minimum(np.searchsorted(knots, s, side="right"), len(knots) - 1) - 1, 0)

    def density(s):
        s = np.asarray(s, dtype=float)
        i = segment(rs_a, s)
        t = (s - rs_a[i]) / (rs_a[i + 1] - rs_a[i])
        inside = (s >= 0) & (s <= rs[-1])
        return np.where(inside, vs_a[i] + t * (vs_a[i + 1] - vs_a[i]), 0.0)[()]

    def cdf_at(s: np.ndarray) -> np.ndarray:
        i = segment(rs_a, s)
        h = s - rs_a[i]
        slope = (vs_a[i + 1] - vs_a[i]) / (rs_a[i + 1] - rs_a[i])
        inner = cdf_a[i] + vs_a[i] * h + 0.5 * slope * h * h
        return np.where(s <= 0, 0.0, np.where(s >= rs[-1], 1.0, inner))

    def inverse_cdf(u):
        u = np.asarray(u, dtype=float)
        if np.any(~((u >= 0.0) & (u < 1.0))):
            raise ValueError("uniform variate must lie in [0, 1)")
        i = segment(cdf_a, u)
        width = rs_a[i + 1] - rs_a[i]
        v0, c = vs_a[i], u - cdf_a[i]
        slope = (vs_a[i + 1] - v0) / width
        # h solves v0 h + slope h^2/2 = c on the segment.  This form of the
        # root has no cancellation and stays finite at slope 0; den is 0
        # only on a segment with no mass, whose left knot is the answer.
        den = v0 + np.sqrt(np.maximum(v0 * v0 + 2.0 * slope * c, 0.0))
        h = np.where(den > 0, 2.0 * c / np.where(den > 0, den, 1.0), 0.0)
        return (rs_a[i] + np.clip(h, 0.0, width))[()]

    def rho_star(T: float) -> float:
        # linear pieces attain extrema at segment endpoints
        candidates = [density(r) for r in rs if r <= T] + [density(min(T, rs[-1]))]
        if T > rs[-1]:
            return 0.0
        return float(min(candidates))

    return LifetimeModel(
        kind="tabulated",
        lam=lam,
        density=density,
        survival=lambda r: np.maximum(1.0 - cdf_at(np.asarray(r, dtype=float)), 0.0)[()],
        inverse_cdf=inverse_cdf,
        rho_star=rho_star,
    )


def _finite_real(what: str, value) -> float:
    """value as a finite float; a boolean or a string is refused, not converted."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"tabulated {what} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class AssumptionReport:
    rho_star: float
    lam: float
    ok: bool
    failures: tuple[str, ...] = ()


SURVIVAL_GRID_POINTS = 1000


def validate_assumption_h(model: LifetimeModel, T: float) -> AssumptionReport:
    """Check rho_*(T) > 0 and rho_bar(r) >= exp(-lam r) on a grid.

    The survival bound is checked on SURVIVAL_GRID_POINTS points of [0, 10/lam]
    (pointwise checking over all r is not decidable); failures are reported,
    never raised.
    """
    if T <= 0:
        raise ValueError(f"horizon T must be > 0, got {T}")
    failures = []
    rho_star = model.rho_star(T)
    if not rho_star > 0:
        failures.append(f"rho_*({T}) = {rho_star} is not > 0")
    hi = 10.0 / model.lam
    tol = 1e-12
    r = hi * np.arange(SURVIVAL_GRID_POINTS) / (SURVIVAL_GRID_POINTS - 1)
    survival, bound = model.survival(r), np.exp(-model.lam * r)
    bad = np.flatnonzero(survival < bound - tol)
    if bad.size:
        i = bad[0]
        failures.append(
            f"survival({r[i]:.6g}) = {survival[i]:.6g} < "
            f"exp(-lambda r) = {bound[i]:.6g}"
        )
    return AssumptionReport(
        rho_star=rho_star, lam=model.lam, ok=not failures, failures=tuple(failures)
    )

