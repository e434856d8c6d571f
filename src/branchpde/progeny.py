"""Exact and series analysis of the dominating binary chain: the
weighted-progeny recursion A, the dominating recursion A-hat with its
closed forms, convergence radii, and bound evaluation.

A and A-hat are recursions over multi-indices, but in both growth regimes
their coefficients are A_nu(k) = H(|nu|, k)/nu! for one scalar recursion
in m = |nu|:

    H(m, 0)   = G(m),
    H(m, k+1) = 1/(k+1) sum_{b<=m} C(m,b) sum_{l<=k}
                [a H(m-b,l) H(b,k-l) + c H(m-b+1,l) H(b+1,k-l)],

with a = 0, c = d, G(m) = m! g.F(m) for A-hat and a = delta2,
c = d delta2/2, G(m) = m! w.F(m, j) for A under the preset weights w.  The
growth sequences (GrowthSequence) and the preset (PresetWeights) carry
these constants as data, and a_recursion and ahat_recursion read them
there: no weight is evaluated to recover them.  Each returns the one row
it is asked for, (alpha, k) for k <= kmax.  The tables are exact: the
engine runs in integers, summing each pair of terms l, k-l once, and
refuses parameters that are not ints or Fractions.  The one float path is
the series of expected_weighted_progeny: it runs the recursion in floats on
F(m, k) = H(m, k)/m!, one matmul per level k over the sizes that level
needs, with x a and x c for its series argument x, so its rows are the
series terms x^k F(m, k) and nothing factorial-sized is formed; it reads
them along the one axis m = |alpha|.

Two tables are built once per distinct input and then shared.  A growth
sequence keeps the A-hat rows of each (d, length, kmax) it was asked for
(GrowthSequence.rows), so the rows of every alpha of one order run the
engine once, and alphas of one class (|alpha|, alpha!) share each value
object.  The closed-form log terms are a pure function of (regime, d,
|alpha|, K), memoised in a bounded cache and returned read-only
(ahat_log_terms); they do not depend on the horizon.  Both hand back values
built by the same arithmetic as a fresh build, so every output is
unchanged.

Both regimes have closed forms for A'_nu(k) at every order, nu = 0
included.  ahat_log_terms evaluates their logarithms for k = 0..K as one
numpy array (log k! as a cumulative sum of logs, the factorial regime's
Gamma ratio through math.lgamma), and the regime's closed_log is the
scalar reference.  _ahat_series reads the terms of the A' series and its
tail closure from it, for the one bound (bound_report) and the tail of
expected_weighted_progeny.  The closed forms run along the first axis,
and A'_nu = (|nu|!/nu!) A'_{|nu| e_1}.  Each regime's formulas (g,
radius, closed-form terms) are methods of Factorial and Exponential.

The regimes, the growth sequences (GrowthSequence, g_factorial,
g_exponential) and the preset (PresetWeights) are defined in stability,
which this module imports; stability imports nothing from here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from operator import mul
from typing import Callable

import numpy as np

from . import stability
from .combinatorics import rising_factorial
from .multiindex import (
    MultiIndex,
    mi_abs,
    mi_add_unit,
    mi_enumerate_below,
    mi_factorial,
    mi_sub,
    mi_upto,
)
from .stability import Exponential, Factorial, GrowthSequence, PresetWeights, _is_exact, _spread

# the name bench/workloads.py reads, and swaps for a traced g, as progeny.g_factorial
g_factorial = stability.g_factorial


class OutsideRadius(ValueError):
    """The series argument lies at or beyond the radius of convergence."""


@dataclass
class SeriesTable:
    values: dict                  # (alpha, k) -> number

    def __getitem__(self, key):
        return self.values[key]


def a_recursion(w: PresetWeights, alpha: MultiIndex, j: int, kmax: int) -> SeriesTable:
    """Weighted-progeny coefficients A_{alpha,j}(k) for k <= kmax, keyed
    (alpha, k).

    A(0) is the inflated boundary weight kappa*sigma_boundary; A(k+1)
    convolves the two subtree coefficient sequences through the offspring
    law.  The weights are the preset of GrowthParams.build_weights, whose
    constants the row is built from: A_alpha(k) = H(|alpha|, k)/alpha! for
    the scalar recursion of the module docstring with G(m) = m! w.F(m, j),
    a = w.a and c = d w.s, exact, in the weights' dimension d = w.d.  The
    values do not depend on j >= 0; j = -1 is refused for kmax >= 1 (such a
    code splits only through its pass-through entry).  Weights with a float
    parameter, or an alpha whose length is not w.d, raise ValueError.
    """
    alpha = _check_alpha(alpha, w.d)
    _check_levels(j, kmax)
    terms = [w.F(m, j) for m in range(sum(alpha) + kmax + 1)]
    return _row_table(alpha, _series_coefficients(terms, w.a, w.d * w.s, kmax))


def ahat_recursion(g: GrowthSequence, d: int, alpha: MultiIndex, kmax: int) -> SeriesTable:
    """Dominating coefficients A'_alpha(k) for k <= kmax, keyed (alpha, k):
    A'_alpha(0) = g(alpha) and

    A'_alpha(k+1) = 1/(k+1) sum_{beta+gamma=alpha} sum_{l1+l2=k}
                    sum_i (1+gamma_i)(1+beta_i) A'_{gamma+1_i}(l1) A'_{beta+1_i}(l2).

    g is a growth sequence (g_factorial, g_exponential), so g(nu) =
    G(|nu|)/nu! and A'_alpha(k) = H(|alpha|, k)/alpha! for the scalar
    recursion of the module docstring with G(m) = m! g.F(m), a = 0 and
    c = d, exact.  A g with float parameters, a d that is not an int >= 1,
    or an alpha whose length is not d, raises ValueError before anything is
    memoised.

    The row function of _series_coefficients is memoised in g.rows under
    (d, len(F), kmax), len(F) = |alpha| + kmax + 1: the rows of every alpha
    of one order run the engine once, and a second table of g hands out
    the same value objects as the first.  The key fixes the engine's inputs
    exactly, so a memoised row is the row a fresh engine builds.  The memo
    lives as long as g and holds one entry per key asked for; regime.g()
    builds a fresh g on every call.
    """
    alpha = _check_alpha(alpha, d)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    size = sum(alpha) + kmax + 1
    key = (d, size, kmax)
    if key not in g.rows:
        g.rows[key] = _series_coefficients([g.F(m) for m in range(size)], 0, d, kmax)
    return _row_table(alpha, g.rows[key])


def _row_table(alpha: tuple, row) -> SeriesTable:
    return SeriesTable({(alpha, l): v for l, v in enumerate(row(sum(alpha), mi_factorial(alpha)))})


def _check_levels(j: int, kmax: int) -> None:
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if j < 0 and kmax >= 1:
        raise ValueError("a j = -1 code splits through its pass-through entry, not the preset form")


def _series_coefficients(F: list, a, c, kmax: int) -> Callable[[int, int], list]:
    """(m, f) -> [H(m, l)/f for l = 0..kmax], for m < len(F) - kmax, H
    being the scalar recursion of the module docstring with H(m, 0) =
    m! F[m].  With m = |alpha| and f = alpha!, that is the row of entries
    (alpha, l) of every alpha of the class (|alpha|, alpha!).

    That recursion is the coefficient form of dG/ds = a G^2 + c (dG/dy)^2
    in one variable y.  The multinomial Vandermonde sum
    sum_{beta<=nu} C(nu,beta) f(|nu-beta|) h(|beta|) = sum_b C(|nu|,b) f(|nu|-b) h(b)
    collapses the multi-index recursions to it when g(nu) = G(|nu|)/nu!.
    Exact (_exact_series): F, a and c must be ints and Fractions, else
    ValueError.  Each row is built once per class, and the one list serves
    every alpha of it.  The rows live as long as the returned function: one
    table for a_recursion, the growth sequence for ahat_recursion, which
    memoises the function in g.rows.
    """
    if not all(map(_is_exact, (*F, a, c))):
        raise ValueError("A and A' tables need rational parameters (ints or Fractions)")
    J, scale = _exact_series(F, a, c, kmax)
    rows: dict = {}

    def row(m: int, f: int) -> list:
        if (m, f) not in rows:
            rows[m, f] = [Fraction(J[l][m], scale[l] * f) for l in range(kmax + 1)]
        return rows[m, f]
    return row


def _exact_series(F: list, a, c, kmax: int) -> tuple:
    """(J, scale) with H(m, l) = J[l][m]/scale[l] in integers, for l <= kmax
    and m < len(F) - l.

    With G(m) = m! F[m] and Q G, L a and L c integral, H'(m, l) =
    Q (QL)^l H(m, l) solves the recursion with a' = L a, c' = L c, and
    J(m, l) = l! H'(m, l) turns its 1/(k+1) into (k+1)!/(l! (k-l)!) =
    (k+1) C(k, l), which leaves no division at all.  The l and k-l terms
    are equal (swap b and m-b as well), so each pair is summed once.
    """
    M = len(F) - 1
    G = [f * math.factorial(m) for m, f in enumerate(F)]
    Q = math.lcm(*(v.denominator for v in G))
    L = math.lcm(a.denominator, c.denominator)
    a, c = int(a * L), int(c * L)
    binoms = [[math.comb(m, b) for b in range(m + 1)] for m in range(M)]
    J = [[int(v * Q) for v in G]]
    for k in range(kmax):
        # (J[l], J[k-l], weight) for l <= k-l; the middle term counts once
        pairs = [
            (J[l], J[k - l], (1 if 2 * l == k else 2) * math.comb(k, l))
            for l in range(k // 2 + 1)
        ]
        row = []
        for m in range(M - k):
            binom = binoms[m]
            total = 0
            for x, y, weight in pairs:
                s = c * sum(map(mul, binom, map(mul, x[m + 1 : 0 : -1], y[1 : m + 2])))
                if a:
                    s += a * sum(map(mul, binom, map(mul, x[m::-1], y[: m + 1])))
                total += weight * s
            row.append(total)
        J.append(row)
    scale = [math.factorial(l) * Q * (Q * L) ** l for l in range(kmax + 1)]
    return J, scale


def _float_series(F: list, a, c, kmax: int) -> np.ndarray:
    """The array of H(m, l)/m! at [l, m] for l <= kmax and m < len(F) - l
    (0 elsewhere), in floats: the series of expected_weighted_progeny, the
    one float form of the recursion.

    F(m, l) = H(m, l)/m! turns the binomial sum into a convolution in m,
    and D(m, l) = (m+1) F(m+1, l) is its derivative in y:

        (k+1) F(., k+1) = sum_{l<=k} a F(., l) * F(., k-l) + c D(., l) * D(., k-l).

    The l and k-l terms are equal, so level k stacks the rows l <= k/2
    (doubled but for the middle one) against the rows k-l, over the
    n = M - k sizes it needs, and one matmul P = X^T Y holds every product
    F(i, l) F(b, k-l); the anti-diagonal sums of P over i + b = m are the
    convolutions.  Carrying H/m! keeps factorial-sized numbers out.  Given
    x a and x c in place of a and c, the rows are x^l H(m, l)/m!, the terms
    of the series in x, which stay finite wherever it converges.
    """
    M = len(F) - 1
    rows = np.zeros((kmax + 1, M + 1))
    rows[0] = F
    deriv = np.zeros((kmax + 1, M))
    up = np.arange(1.0, M + 1)
    deriv[0] = rows[0, 1:] * up
    anti = np.add.outer(np.arange(M), np.arange(M))  # i + b
    for k in range(kmax):
        n, h = M - k, k // 2 + 1
        weight = np.full((h, 1), 2.0)
        if k % 2 == 0:
            weight[-1] = 1.0
        X, Y = [c * weight * deriv[:h, :n]], [deriv[k - h + 1 : k + 1][::-1, :n]]
        if a:
            X.append(a * weight * rows[:h, :n])
            Y.append(rows[k - h + 1 : k + 1][::-1, :n])
        P = np.concatenate(X).T @ np.concatenate(Y)
        rows[k + 1, :n] = np.bincount(anti[:n, :n].ravel(), P.ravel())[:n] / (k + 1)
        deriv[k + 1, : n - 1] = rows[k + 1, 1:n] * up[: n - 1]
    return rows


def ahat_closed_factorial(theta, r, d: int, alpha: MultiIndex, k: int) -> Fraction:
    """Closed form under the factorial growth sequence:

    (2d)^k r^{k+1} theta^{2k+|alpha|}/alpha! * G((r+2)k+r+|alpha|) /
    ((k+1)! G((r+1)(k+1))).

    With b = (r+1)(k+1), the Gamma ratio is the rising product of
    k+|alpha| factors from b-1, over b-1 > 0; so the value is an exact
    Fraction of Fraction(theta) and Fraction(r), alpha = 0 included.
    """
    m = mi_abs(alpha)
    if k < 0:
        raise ValueError("k must be >= 0")
    theta, r = Fraction(theta), Fraction(r)
    base = (r + 1) * (k + 1) - 1
    ratio = rising_factorial(base, k + m) / base
    return (
        Fraction(2 * d) ** k
        * r ** (k + 1)
        * theta ** (2 * k + m)
        / mi_factorial(alpha)
        * ratio
        / math.factorial(k + 1)
    )


def ahat_closed_exponential(theta, d: int, alpha: MultiIndex, k: int) -> Fraction:
    """Closed form under the exponential growth sequence:
    (2d)^k theta^{2k+|alpha|}/(alpha! k!) (k+1)^{k+|alpha|-2}, an exact
    Fraction of Fraction(theta)."""
    m = mi_abs(alpha)
    if k < 0:
        raise ValueError("k must be >= 0")
    return (
        Fraction(2 * d) ** k
        * Fraction(theta) ** (2 * k + m)
        / (mi_factorial(alpha) * math.factorial(k))
        * Fraction(k + 1) ** (k + m - 2)
    )


@dataclass(frozen=True)
class DominationReport:
    regime: str
    lhs: float                 # the two sides of regime.side_theta(d)
    rhs: float
    passed: bool
    ratio_identity_checked: bool  # exact per-k ratio formula vs recursion values


DOMINATION_GRID_KMAX, DOMINATION_GRID_ALPHAMAX = 4, 3


def check_domination_condition(regime: Factorial | Exponential, d: int = 1) -> DominationReport:
    """Check (1+alpha_i) A'_{alpha+1_i}(k) >= sqrt(2/d) A'_alpha(k).

    Uses the regime's exact ratio formula (regime.ratio), whose minimum over
    k and alpha, reached at alpha = 0 and k = 0, is the left side of
    side-theta (regime.side_theta).  Also validates the ratio identity
    against recursion values, in rationals (the regime's parameters are
    converted to Fractions), as (m+1) A'_{(m+1) e_1}(k) = ratio(m, k)
    A'_{m e_1}(k) for m <= DOMINATION_GRID_ALPHAMAX and k <=
    DOMINATION_GRID_KMAX, m = 0 included.  As A'_alpha(k) = H(|alpha|,
    k)/alpha!, that is H(m+1, k) = ratio(m, k) H(m, k), the identity at
    every alpha of order m and every i.
    """
    lhs, rhs, holds = regime.side_theta(d)
    exact = replace(regime, **{f.name: Fraction(getattr(regime, f.name)) for f in fields(regime)})

    # exact grid validation of the ratio identity, plus the raw inequality
    # (the latter is only expected to hold when the analytic verdict passes)
    identity_ok = True
    grid_ok = True
    g = exact.g()
    axis = [(m,) + (0,) * (d - 1) for m in range(DOMINATION_GRID_ALPHAMAX + 2)]
    rows = [ahat_recursion(g, d, nu, DOMINATION_GRID_KMAX) for nu in axis]
    for m in range(DOMINATION_GRID_ALPHAMAX + 1):
        for k in range(DOMINATION_GRID_KMAX + 1):
            base = rows[m][axis[m], k]
            up = (m + 1) * rows[m + 1][axis[m + 1], k]
            if up != exact.ratio(m, k) * base:
                identity_ok = False
            if float(up) < rhs * float(base) - 1e-12:
                grid_ok = False
    return DominationReport(
        regime=regime.name,
        lhs=lhs,
        rhs=rhs,
        passed=holds and grid_ok,
        ratio_identity_checked=identity_ok,
    )


def ahat_log_terms(params, alpha_abs: int, kmax: int) -> np.ndarray:
    """log A'_{alpha_abs e_1}(k) for k = 0..kmax, as one read-only array
    (see _ahat_log_terms); params.regime.closed_log is its scalar reference."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    return _ahat_log_terms(params.regime, params.d, alpha_abs, kmax)


@functools.lru_cache(maxsize=256)
def _ahat_log_terms(regime, d: int, m: int, kmax: int) -> np.ndarray:
    """log A'_{m e_1}(k) for k = 0..kmax under regime in dimension d.

    log k! is a cumulative sum of logs; the regime adds its own part of the
    closed form (regime.closed_log_terms).  The terms depend on nothing
    else, so one table serves every horizon: the cache keeps the 256 most
    recently used (at most 3 kB each for the bound's series, K <= 401, and
    16 kB for tracked_constant's, K = _K_PROBE).  The regimes are
    frozen and hash by value, and every parameter enters through
    float(...), so equal keys give the same bits.
    The array is shared, hence read-only.
    """
    k = np.arange(kmax + 1, dtype=float)
    # log j! for j = 0..kmax+1
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, kmax + 2)))))
    logs = (
        k * math.log(2 * d)
        + (2 * k + m) * math.log(float(regime.theta))
        - math.log(math.factorial(m))
    )
    out = regime.closed_log_terms(logs, m, k, log_fact)
    out.flags.writeable = False
    return out


def expected_weighted_progeny(
    alpha: MultiIndex,
    j: int,
    lam: float,
    horizon: float,
    params,
    ktrunc: int = 60,
) -> dict:
    """Truncated series for the mean dominating weighted progeny,

        exp(-lam h) sum_{k<=ktrunc} (1-exp(-lam h))^k A_{alpha,j}(k),

    with a geometric tail bound.  Requires (1-exp(-lam h)) delta1 delta2 <
    radius, R at the parameters' own theta, else OutsideRadius.

    The preset's constants are a_recursion's (and j = -1 is refused the
    same way), but no table is built: the float engine, given x a and x c,
    carries the x-scaled terms x^k H(m, k)/m!, and the sum reads them along
    the one axis m = |alpha|.  Nothing factorial-sized arises, so any ktrunc
    is safe inside the radius.

    The tail bound rests on the domination A(k) <= delta1 (delta1 delta2)^k
    A'(k), which is proven at theta* = params.with_side_theta(), the least
    theta >= the given one where side-theta holds (as in bound_report).  A
    is nondecreasing in theta coefficient by coefficient, so A at theta is
    bounded by A' at theta*.  The tail is therefore taken at theta*: it is
    infinite wherever R(theta*) <= (1-exp(-lam h)) delta1 delta2 < R(theta).

    `params` is a growth-parameter bundle exposing build_weights(), radius(),
    with_side_theta(), delta1, delta2 and d (see stability.GrowthParams).  A
    negative or NaN horizon, or an alpha whose length is not d, raises
    ValueError.
    """
    alpha = _check_alpha(alpha, params.d)
    if not horizon >= 0:
        raise ValueError(f"the horizon h = {horizon!r} must be >= 0")
    x = 1.0 - math.exp(-lam * horizon)
    xa = x * float(params.delta1) * float(params.delta2)
    radius = params.radius()
    if not xa < radius:
        raise OutsideRadius(
            f"(1-exp(-lam*h)) * delta1 * delta2 = {xa:.6g} >= radius {radius:.6g}"
        )
    _check_levels(j, ktrunc)
    w = params.build_weights()
    # x^k A_alpha(k) = x^k H(|alpha|, k)/alpha!, read along the axis m = |alpha|
    m = mi_abs(alpha)
    F = [float(w.F(n, j)) for n in range(m + ktrunc + 1)]
    terms = _float_series(F, x * float(w.a), x * params.d * float(w.s), ktrunc)[:, m]
    value = math.exp(-lam * horizon) * _spread(alpha) * math.fsum(terms.tolist())
    # tail: A(k) <= delta1 (delta1 delta2)^k A'(k) at theta*, closed geometrically
    tail = 0.0
    if xa > 0:
        star = params.with_side_theta()
        # past R(theta*) a term may pass the float range; the closure is inf there
        with np.errstate(over="ignore"):
            _, closure = _ahat_series(ahat_log_terms(star, m, ktrunc + 1), xa, star.radius())
        tail = math.exp(-lam * horizon) * float(params.delta1) * _spread(alpha) * closure
    return {
        "value": value,
        "tail_bound": tail,
        "ktrunc": ktrunc,
        "series_argument": x,
        "dominating_argument": xa,
        "radius": radius,
    }


_K_PROBE = 2000  # the length of tracked_constant's table


def tracked_constant(params, alpha_abs: int) -> float:
    """Supremum (in log space) of the exact prefactor sequence behind the
    factorial-regime bound

        A'_alpha(k) <= C (2 theta d)^{|alpha|} (2^{-(r+2)} R)^{-(k+1)},

    i.e. C = sup_k A'(k) (2^{-(r+2)}R)^{k+1} (2 theta d)^{-|alpha|}, exact at
    every order.  This is the paper's constant: the A' series at x <
    2^{-(r+2)} R is at most C (2 theta d)^{|alpha|} / (2^{-(r+2)} R - x)
    (see bound_report).

    The sup is the max over one table, k <= _K_PROBE.  The term ratios are
    monotone with limit 1/R, so no term past the first k where y max(1/R,
    A'(k+1)/A'(k)) <= 1, y = 2^{-(r+2)} R, exceeds the k-th; a table with
    no such k raises ValueError.
    """
    y = params.regime.horizon_threshold(params.d)
    logs = ahat_log_terms(params, alpha_abs, _K_PROBE)
    if not np.any(y * np.maximum(1.0 / params.radius(), np.exp(np.diff(logs))) <= 1.0):
        raise ValueError(f"the terms at y = {y:.6g} still grow at k = {_K_PROBE}")
    log_sup = float(np.max(logs + np.arange(1, _K_PROBE + 2) * math.log(y)))
    log_pref = -alpha_abs * math.log(2 * float(params.regime.theta) * params.d)
    return math.exp(log_sup + log_pref)


def bound_report(alpha: MultiIndex, params, lam: float, T: float) -> dict:
    """Upper bound on the mean dominating weighted progeny
    exp(-lam T) sum_k (1-exp(-lam T))^k A_alpha(k) at the parameters' own
    rate and horizon: lam and T must equal params.lam and params.T, else
    ValueError naming the one that differs.  To bound a shorter horizon,
    build params at it.

    The bound rests on the domination A(k) <= delta1 (delta1 delta2)^k
    A'(k), which needs the side-theta condition theta r >= sqrt(2/d)
    (theta >= sqrt(2/d) in the exponential regime).  A is nondecreasing in
    theta coefficient by coefficient, so A' and its radius R are evaluated
    at theta* = params.with_side_theta(), where the condition holds (theta*
    = theta wherever it already holds at theta).  With x =
    params.dominating_argument() = (1-exp(-lam T)) delta1 delta2 < R =
    R(theta*), the bound in both regimes and at every order is the
    dominating series

        delta1 exp(-lam T) (|alpha|!/alpha!) sum_k A'_{|alpha| e_1}(k) x^k

    with its tail closure (_ghat_series_value), which keeps it an upper
    bound.  It is nondecreasing in x and at most the paper's closed forms:

    alpha = 0:               delta1 exp(-lam T) times the sup of the series
                             over [0, R), 1/2 ((r+2)/(r+1))^{r+1}
                             (factorial) or e/2 (exponential);
    factorial, |alpha| >= 1: C (2 theta d)^{|alpha|} delta1 exp(-lam T)
                             (|alpha|!/alpha!) / (y - x) for x < y =
                             2^{-(r+2)} R, C = tracked_constant, because
                             sum_k A'(k) x^k <= sup_k A'(k) y^{k+1}
                             sum_k x^k/y^{k+1} for any x < y < R.

    The dict carries alpha, the regime name, theta* as `theta`, x as
    `series_argument`, R(theta*) as `radius` and the bound as `wh_bound`.
    x >= R raises OutsideRadius; an alpha whose length is not params.d
    raises ValueError; a bound past the float range raises OverflowError.
    """
    if lam != params.lam:
        raise ValueError(f"lam = {lam!r} differs from params.lam = {params.lam!r}")
    if T != params.T:
        raise ValueError(f"T = {T!r} differs from params.T = {params.T!r}")
    return dominating_bound(alpha, params, params.dominating_argument(), math.exp(-lam * T))


def hbound(alpha: MultiIndex, params) -> dict:
    """Explicit bound on the mean absolute path functional for a code of
    order alpha at horizon params.T: bound_report without its exp(-lam T)
    factor, in the same dict form (wh_bound is the bound), at the same
    argument params.dominating_argument().
    """
    return dominating_bound(alpha, params, params.dominating_argument(), 1.0)


def dominating_bound(alpha: MultiIndex, params, x: float, decay: float) -> dict:
    """bound_report at dominating argument x >= 0, with decay in place of
    its exp(-lam T) factor (hbound passes 1): delta1 decay
    (|alpha|!/alpha!) sum_k A'_{|alpha| e_1}(k) x^k at theta*, tail closure
    included, for x < R(theta*), and OutsideRadius from there on.  A bound
    that is not a finite float raises OverflowError naming alpha and x."""
    alpha = _check_alpha(alpha, params.d)
    if not x >= 0:
        raise ValueError(f"the series argument x = {x!r} must be >= 0")
    params = params.with_side_theta()
    try:
        series = _spread(alpha) * _ghat_series_value(params, mi_abs(alpha), x)
        bound = float(params.delta1) * decay * series
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise OverflowError(
            f"the bound of order {mi_abs(alpha)} at alpha = {alpha}, x = {x!r} is not a finite float"
        )
    return {
        "alpha": alpha,
        "regime": params.regime.name,
        "theta": float(params.regime.theta),
        "series_argument": x,
        "radius": params.radius(),
        "wh_bound": bound,
    }


def _ghat_series_value(params, alpha_abs: int, x: float, ktrunc: int = 400) -> float:
    """sum_k A'_alpha(k) x^k, alpha of order alpha_abs along the first axis,
    with geometric tail closure.

    The sum runs to K = 64, doubled up to ktrunc until the closure of the
    tail past K (_ahat_series) is below 1e-17 of the partial sum, and keeps
    that closure, so it stays an upper bound.  A table of terms costs nearly
    the same at any length up to a few hundred, so K starts where one table
    serves most calls.
    """
    R = params.radius()
    if not x < R:
        raise OutsideRadius(f"x = {x:.6g} >= R = {R:.6g}")
    if x == 0:
        return math.exp(ahat_log_terms(params, alpha_abs, 0)[0])
    K = min(64, ktrunc)
    logs = ahat_log_terms(params, alpha_abs, K + 1)
    # log(A'(k) x^k) is concave or decreasing in k (see _ahat_series), so it stays
    # under its tangent at k = 0.  Under e^650 nothing below leaves the float
    # range; over it, numpy's overflow warning is off, and an overflow gives inf
    l0 = logs.item(0)
    top = l0 + ktrunc * max(logs.item(1) - l0 + math.log(x), 0.0)
    if top >= 650.0 and np.geterr()["over"] != "ignore":
        with np.errstate(over="ignore"):
            return _ghat_series_value(params, alpha_abs, x, ktrunc)
    while True:
        terms, closure = _ahat_series(logs, x, R)
        if closure < 1e-17 * terms.sum() or K == ktrunc:
            return math.fsum([*terms.tolist(), closure])
        K = min(2 * K, ktrunc)
        logs = ahat_log_terms(params, alpha_abs, K + 1)


def _ahat_series(logs: np.ndarray, x: float, R: float) -> tuple:
    """(terms, closure) for 0 < x, from logs = ahat_log_terms(params, m,
    K + 1): the terms A'_{m e_1}(k) x^k, k <= K, as an array, and the
    closure of the tail past K, terms[K] rho/(1 - rho) with rho = max(x
    A'(K+1)/A'(K), x/R), or inf when rho >= 1.  R is params.radius(), which
    both callers already hold.

    The ratios A'(k+1)/A'(k) are monotone in k with limit 1/R: increasing
    for m = 0 and small m, decreasing for larger m (in the exponential
    regime the ratio is 2 d theta^2 (1+1/(k+1))^{k+m-1}).  So rho bounds
    every later ratio, where x/R alone would undercount a decreasing
    sequence's tail.
    """
    K = len(logs) - 2
    terms = np.exp(logs[:-1] + np.arange(K + 1) * math.log(x))
    rho = max(x * math.exp(logs[K + 1] - logs[K]), x / R)
    closure = float(terms[K] * (rho / (1.0 - rho))) if rho < 1.0 else math.inf
    return terms, closure


def _check_alpha(alpha: MultiIndex, d: int) -> tuple:
    if type(d) is not int or d < 1:
        raise ValueError(f"d = {d!r} must be an int >= 1")
    alpha = tuple(alpha)
    if len(alpha) != d:
        raise ValueError(f"alpha = {alpha} has {len(alpha)} entries, not d = {d}")
    return alpha


def contact_hj_consistency(g: GrowthSequence, d: int, kmax: int, alphamax: int) -> bool:
    """Verify, coefficient by coefficient and exactly in rationals, that the
    weighted-progeny table built from the unit-normalizing preset of g
    (delta1 = delta2 = 1) satisfies

      (k+1) A_alpha(k+1) = sum_{beta+gamma=alpha} sum_{l1+l2=k}
        [ A_gamma(l1) A_beta(l2)
          + 1/2 sum_i (1+gamma_i)(1+beta_i) A_{gamma+1_i}(l1) A_{beta+1_i}(l2) ],

    the coefficient form of dG/ds = G^2 + |grad G|^2 / 2.
    """
    w = PresetWeights(g, Fraction(1), Fraction(1), d)
    values: dict = {}

    def A(al, k):  # row by row, each up to kmax
        if (al, k) not in values:
            values.update(a_recursion(w, al, 0, kmax).values)
        return values[(al, k)]

    for al in mi_upto(alphamax, d):
        for k in range(kmax):
            lhs = (k + 1) * A(al, k + 1)
            rhs = Fraction(0)
            for beta in mi_enumerate_below(al):
                gamma = mi_sub(al, beta)
                for l1 in range(k + 1):
                    l2 = k - l1
                    rhs += A(gamma, l1) * A(beta, l2)
                    for i in range(1, d + 1):
                        rhs += (
                            Fraction((1 + gamma[i - 1]) * (1 + beta[i - 1]), 2)
                            * A(mi_add_unit(gamma, i), l1)
                            * A(mi_add_unit(beta, i), l2)
                        )
            if lhs != rhs:
                return False
    return True
