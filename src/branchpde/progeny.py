"""Exact and series analysis of the dominating binary chain: the
weighted-progeny recursion A, the dominating recursion A-hat with its
closed forms, convergence radii, and bound evaluation.

A and A-hat are recursions over multi-indices, but in both growth regimes
their coefficients are A_nu(k) = H(|nu|, k)/nu! for one scalar recursion
in m = |nu|:

    H(m, 0)   = G(m),
    H(m, k+1) = 1/(k+1) sum_{b<=m} C(m,b) sum_{l<=k}
                [a H(m-b,l) H(b,k-l) + c H(m-b+1,l) H(b+1,k-l)],

with a = 0, c = d, G(m) = g(m e_1) m! for A-hat and a = delta2,
c = d delta2/2, G(m) = kappa sigma_boundary(m e_1, j) m! for A under the
preset weights.  a_recursion and ahat_recursion solve it with one engine
and refuse inputs not of that form.  For rational inputs the engine runs in
integers, summing each pair of terms l, k-l once.  Otherwise it runs in
floats on F(m, k) = H(m, k)/m!, one matmul per level k over the sizes that
level needs, so nothing factorial-sized is formed.  expected_weighted_progeny
passes x a and x c for its series argument x, which makes the rows the
series terms x^k F(m, k), and reads them along the one axis m = |alpha|
without building a table.

So an entry (nu, k) with k >= 1 depends on nu only through its class
(|nu|, nu!), and a table holds far fewer values than entries: the ten
A-hat tables at d = 2, kmax 12, |alpha| <= 3 have 5136 such entries in
2915 (class, k) pairs.  Each value is built once per pair, and the one
object serves every node of the class.  The inputs are still checked at
every node, each against the expected value of its class: g(nu) (kappa
sigma_boundary for A) against F(|nu|) |nu|!/nu!, and sigma_inner against
the preset form.  Exact inputs are compared exactly, in integers, with no
Fraction formed per node; floats to a relative 1e-12 of F(|nu|) (of the
preset constant).  Nothing is cached across calls.

For |nu| >= 1 both regimes have closed forms for A'_nu(k).  ahat_log_terms
evaluates their logarithms for k = 0..K as one numpy array (log k! as a
cumulative sum of logs, the factorial regime's Gamma ratio through
math.lgamma); the series, sup and tail evaluations behind the bounds read
their terms from it, and ahat_value_log is the scalar reference.  The
closed forms run along the first axis, and A'_nu = (|nu|!/nu!) A'_{|nu| e_1}.
Each regime's formulas (g, radius, closed-form terms) are methods of
Factorial and Exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from operator import mul
from typing import Callable, ClassVar

import numpy as np

from .combinatorics import gamma_ratio_exact, log_gamma_ratio, pochhammer_falling
from .mechanism import index_product
from .multiindex import (
    MultiIndex,
    mi_abs,
    mi_add_unit,
    mi_enumerate_below,
    mi_factorial,
    mi_sub,
    mi_upto,
)
from .tree import WeightSpec


class OutsideRadius(ValueError):
    """The series argument lies at or beyond the radius of convergence."""


@dataclass
class SeriesTable:
    backend: str                  # "exact" | "float"
    values: dict                  # (alpha, k) or (alpha, j, k) -> number
    d: int
    meta: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]


def a_recursion(
    w: WeightSpec,
    d: int,
    alpha: MultiIndex,
    j: int,
    kmax: int,
    collapse_j: bool = False,
    as_float: bool = False,
) -> SeriesTable:
    """Weighted-progeny coefficients A_{alpha,j}(k) for k <= kmax.

    A(0) is the inflated boundary weight kappa*sigma_boundary; A(k+1)
    convolves the two subtree coefficient sequences through the offspring
    law.  The weights must have the preset form of stability.build_weights,

        kappa sigma_boundary(nu, j') = G(|nu|)/nu!,
        sigma_inner(nu, j', 0)       = a (d+1) prod(1+nu),
        sigma_inner(nu, j', i)       = s (d+1)/6 (2+nu_i)(3+nu_i) prod(1+nu),

    with constants a and s (the preset has a = delta2, s = delta2/2), at
    every entry of the table; otherwise, and for j = -1 with kmax >= 1, it
    raises ValueError.  Then A_nu(k) = H(|nu|, k)/nu! for the scalar
    recursion of the module docstring with c = d s, and each entry is read
    off the engine's row for |nu|.

    The table holds every entry the multi-index recursion reads, the
    level-0 ones being kappa*sigma_boundary itself.  With collapse_j=True
    the keys are (alpha, l) for l <= kmax and (nu, l) for
    l <= kmax - max(e, 1), e = sum_i max(0, nu_i - alpha_i), nu = 0
    included; the values do not depend on j, which tests verify.  Otherwise
    the keys are (nu, j', l) over the nodes of _j_levels.  as_float converts
    the weights to floats first; the float engine carries H(m, k)/m!, so no
    factorial-sized float arises at any kmax.  expected_weighted_progeny
    reads only the entries (alpha, k), straight from the engine.
    """
    alpha = tuple(alpha)
    conv = float if as_float else (lambda v: v)
    levels, base, F, a, s = _preset_series(w, d, alpha, j, kmax, collapse_j, conv)
    row = _series_coefficients(F, a, d * s, kmax)
    values: dict = {}
    for (nu, jj), (top, m, f) in levels.items():
        key = (nu,) if collapse_j else (nu, jj)
        values[key + (0,)] = conv(base[nu, jj])
        for l, v in enumerate(row(m, f, top), 1):
            values[key + (l,)] = v
    return SeriesTable(
        backend="float" if as_float else "exact",
        values=values,
        d=d,
        meta={"alpha": alpha, "j": j, "kmax": kmax, "collapsed": collapse_j},
    )


def ahat_recursion(
    g: Callable[[MultiIndex], Fraction],
    d: int,
    alpha: MultiIndex,
    kmax: int,
) -> SeriesTable:
    """Dominating coefficients: A'(0) = g(alpha) and

    A'_alpha(k+1) = 1/(k+1) sum_{beta+gamma=alpha} sum_{l1+l2=k}
                    sum_i (1+gamma_i)(1+beta_i) A'_{gamma+1_i}(l1) A'_{beta+1_i}(l2).

    g must have the form g(nu) = G(|nu|)/nu!, as g_factorial and
    g_exponential do, at every nu of the table, else ValueError.  Then
    A'_nu(k) = H(|nu|, k)/nu! for the scalar recursion of the module
    docstring with a = 0 and c = d, exact in the arithmetic of g's values.
    The table holds every entry the multi-index recursion reads: (alpha, l)
    for l <= kmax and (nu, l) for nu != 0 and l <= kmax - max(e, 1),
    e = sum_i max(0, nu_i - alpha_i), with the level-0 entries g(nu) itself.

    g is called, and its value checked, at every node: against
    F(|nu|) |nu|!/nu!, F(m) being g/(m!/nu!) at the first node of size m,
    with an integer cross-multiplication for exact values and to a relative
    1e-12 of F(|nu|) for floats.  The entries with l >= 1 are built once per
    class (|nu|, nu!) and level, and nodes of one class share the object.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    alpha = tuple(alpha)
    levels = _table_levels(alpha, kmax, False)
    base = {nu: g(nu) for nu in levels}
    row = _series_coefficients(_sizes(levels, base), 0, d, kmax)
    values: dict = {}
    for nu, (top, m, f) in levels.items():
        values[(nu, 0)] = base[nu]
        for l, v in enumerate(row(m, f, top), 1):
            values[(nu, l)] = v
    return SeriesTable(
        backend="exact" if _is_exact(base[alpha]) else "float",
        values=values,
        d=d,
        meta={"alpha": alpha, "kmax": kmax},
    )


def _series_coefficients(F: list, a, c, kmax: int) -> Callable[[int, int, int], list]:
    """(m, f, top) -> [H(m, l)/f for l = 1..top], for 1 <= top <= kmax and
    m + top < len(F), H being the scalar recursion of the module docstring
    with H(m, 0) = m! F[m].  With m = |nu| and f = nu!, that is the row of
    entries (nu, l) of every node nu of the class (|nu|, nu!).

    That recursion is the coefficient form of dG/ds = a G^2 + c (dG/dy)^2
    in one variable y.  The multinomial Vandermonde sum
    sum_{beta<=nu} C(nu,beta) f(|nu-beta|) h(|beta|) = sum_b C(|nu|,b) f(|nu|-b) h(b)
    collapses the multi-index recursions to it when g(nu) = G(|nu|)/nu!.
    Exact when F, a and c are ints and Fractions (_exact_series), else in
    floats (_float_series).  Each value is built once per (m, l, f) and the
    same object serves every node of the class; the rows live only as long
    as the returned function, one table.
    """
    if all(map(_is_exact, (*F, a, c))):
        J, scale = _exact_series(F, a, c, kmax)
        value = lambda m, f, l: Fraction(J[l][m], scale[l] * f)
    else:
        H = _float_series(F, a, c, kmax)
        value = lambda m, f, l: float(H[l, m]) * (math.factorial(m) // f)
    rows: dict = {}

    def row(m: int, f: int, top: int) -> list:
        r = rows.setdefault((m, f), [])
        while len(r) < top:
            r.append(value(m, f, len(r) + 1))
        return r[:top]
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
    (0 elsewhere), in floats.

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


def _table_levels(alpha: MultiIndex, kmax: int, with_zero: bool) -> dict:
    """{nu: (top level, |nu|, nu!)} of the table the multi-index recursion
    fills from (alpha, l) for l <= kmax: alpha up to kmax, and every other
    nu up to kmax - max(e, 1), where e = sum_i max(0, nu_i - alpha_i) is its
    excess over alpha.  nu = 0 is in only with_zero (A reads it, A-hat does
    not).  The nodes grow one axis at a time, each prefix carrying its
    excess, size and factorial, and no prefix's excess passes kmax."""
    fact = [math.factorial(n) for n in range(max(alpha, default=0) + kmax + 1)]
    prefixes = [((), 0, 0, 1)]
    for a in alpha:
        prefixes = [
            (nu + (n,), e + max(0, n - a), m + n, f * fact[n])
            for nu, e, m, f in prefixes
            for n in range(a + kmax - e + 1)
        ]
    levels = {alpha: (kmax, sum(alpha), mi_factorial(alpha))}
    for nu, e, m, f in prefixes:
        top = kmax - max(e, 1)
        if top >= 0 and nu != alpha and (with_zero or m):
            levels[nu] = (top, m, f)
    return levels


def _j_levels(alpha: MultiIndex, j: int, kmax: int) -> dict:
    """{(nu, j'): top level} of the nodes the multi-index recursion for
    A_{alpha,j} reads, found without arithmetic: node (nu, j') at level k
    reads (gamma, 0), (beta, j'+1), (gamma+1_i, 0) and (beta+1_i, j'+1) for
    every beta + gamma = nu at every level below k."""
    top = {(alpha, j): kmax}
    frontier = [(alpha, j)]
    for level in range(kmax - 1, -1, -1):
        reached = []
        for nu, jj in frontier:
            for beta in mi_enumerate_below(nu):
                gamma = mi_sub(nu, beta)
                children = [(gamma, 0), (beta, jj + 1)]
                for i in range(1, len(nu) + 1):
                    children += [(mi_add_unit(gamma, i), 0), (mi_add_unit(beta, i), jj + 1)]
                for child in children:
                    if child not in top:
                        top[child] = level
                        reached.append(child)
        frontier = reached
    return top


def _preset_series(
    w: WeightSpec, d: int, alpha: MultiIndex, j: int, kmax: int, collapse_j: bool, conv
) -> tuple:
    """(levels, base, F, a, s): the checked inputs of the recursion for
    A_{alpha,j} up to kmax.  levels maps each (nu, j') the multi-index
    recursion reads to (top level, |nu|, nu!) (j' = j throughout with
    collapse_j), base[node] = kappa sigma_boundary(node), F = _sizes of base
    and a, s are the preset constants, the last three through conv.  The
    checks run on the weights as given, before conv.  ValueError for
    kmax < 0, for j = -1 with kmax >= 1 (such a code splits only through its
    pass-through entry), and unless the weights have the preset form at
    every node.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if j < 0 and kmax >= 1:
        raise ValueError("a j = -1 code splits through its pass-through entry, not the preset form")
    if collapse_j:
        levels = {(nu, j): v for nu, v in _table_levels(alpha, kmax, True).items()}
    else:
        levels = {
            node: (top, sum(node[0]), mi_factorial(node[0]))
            for node, top in _j_levels(alpha, j, kmax).items()
        }
    base = {node: w.boundary_dominating(*node) for node in levels}
    a, s = _preset_constants(w, d, [node for node, v in levels.items() if v[0] >= 1], conv)
    return levels, base, _sizes(levels, base, conv), a, s


def _sizes(levels: dict, base: dict, conv=None) -> list:
    """[F(0), ..., F(max |nu|)] with F(|nu|) = g(nu)/(|nu|!/nu!), that is
    G(|nu|)/|nu|! for g(nu) = G(|nu|)/nu!, from base[node] = g(nu) and
    levels[node] = (top, |nu|, nu!); ValueError unless that depends on |nu|
    only.  Every node is checked, against the expected value of its class
    (|nu|, nu!) (see _Proportional).  F(m) is conv(g)/(m!/nu!) at the first node of size m;
    dividing by the multinomial keeps a float g clear of factorial-sized
    products.  A size no node has (0, in an A-hat table with alpha != 0)
    reads 0: the A-hat recursion never uses it."""
    sizes = _Proportional()
    for node, (_, m, f) in levels.items():
        if not sizes.holds(m, math.factorial(m) // f, base[node]):
            raise ValueError(f"the level-0 value at {node} is not G(|nu|)/nu!")
    return [sizes.ratio(m, conv) if m in sizes.first else 0 for m in range(max(sizes.first) + 1)]


def _preset_constants(w: WeightSpec, d: int, nodes: list, conv) -> tuple:
    """(a, s), through conv, with sigma_inner(nu, j, 0) = a (d+1) prod(1+nu)
    and sigma_inner(nu, j, i) = s (d+1)/6 (2+nu_i)(3+nu_i) prod(1+nu) at
    every (nu, j) in nodes; ValueError unless a and s are constant.  Each
    node is checked against its class of equal factors (see _Proportional)."""
    inner = _Proportional()
    for nu, jj in nodes:
        p = (d + 1) * index_product(nu)
        if not inner.holds("0", p, w.sigma_inner(nu, jj, 0)):
            raise ValueError("sigma_inner(nu, j, 0) is not of the preset form")
        for i in range(1, d + 1):
            if not inner.holds("i", p * (2 + nu[i - 1]) * (3 + nu[i - 1]), w.sigma_inner(nu, jj, i)):
                raise ValueError("sigma_inner(nu, j, i) is not of the preset form")
    if not nodes:
        return 0, 0
    return inner.ratio("0", conv), inner.ratio("i", lambda v: 6 * conv(v))


class _Proportional:
    """Checks, node by node, that each value v is c n for an int n that the
    node fixes, c = c(group) being v/n at the group's first node: exactly
    for ints and Fractions, to a relative 1e-12 for floats.  The nodes with
    one (group, n) form a class with the expected value c n.  An exact v is
    compared with it in integers, v.numerator n0 v0.denominator ==
    v0.numerator n v.denominator against the first node's v0, n0, so no
    check builds a Fraction; a float v/n is compared with c itself, never
    with a class representative, so no tolerance is chained."""

    def __init__(self):
        self.first: dict = {}  # group -> (v0, n0, v0 is exact, c)

    def holds(self, group, n: int, v) -> bool:
        exact = _is_exact(v)
        ref = self.first.get(group)
        if ref is None:
            ref = self.first[group] = (v, n, exact, _ratio(v, n))
        v0, n0, exact0, c = ref
        if exact and exact0:
            return v.numerator * n0 * v0.denominator == v0.numerator * n * v.denominator
        return math.isclose(c, _ratio(v, n), rel_tol=1e-12)

    def ratio(self, group, conv=None):
        """c(group), or conv(v0)/n0 with conv given."""
        v0, n0, _, c = self.first[group]
        return c if conv is None else _ratio(conv(v0), n0)


def _is_exact(v) -> bool:
    # a float is ruled out first: isinstance(v, Fraction) is an ABC check,
    # slow for the floats that fail it
    return not isinstance(v, float) and isinstance(v, (int, Fraction))


def _ratio(x, n: int):
    return Fraction(x, n) if _is_exact(x) else x / n


def g_factorial(theta, r) -> Callable[[MultiIndex], Fraction]:
    """Growth sequence (|a|+r-1)_{|a|} theta^{|a|}/a!  (series of (1-theta<x>)^-r).

    With rational theta and r, the Pochhammer product (r)(r+1)...(r+m-1)
    grows by one factor per new m, in the order pochhammer_falling
    multiplies, so each G(m) is the same number.  Otherwise G(m)/m! grows
    by the factor theta (r+m-1)/m (see _float_growth_sequence)."""
    if not (_is_exact(theta) and _is_exact(r)):
        return _float_growth_sequence(lambda m: theta * (r + m - 1) / m)
    rising = [Fraction(1)]

    def G(m):
        while len(rising) <= m:
            rising.append(rising[-1] * (r + len(rising) - 1))
        return rising[m] * theta**m
    return _growth_sequence(G)


def g_exponential(theta) -> Callable[[MultiIndex], Fraction]:
    """Growth sequence theta^{|a|}/a!  (series of exp(theta<x>)); G(m)/m!
    grows by theta/m for a float theta (see _float_growth_sequence)."""
    if not _is_exact(theta):
        return _float_growth_sequence(lambda m: theta / m)
    return _growth_sequence(lambda m: theta**m)


def _growth_sequence(G: Callable[[int], Fraction]) -> Callable[[MultiIndex], Fraction]:
    """a -> G(|a|)/a!, building each G(m) once."""
    memo: dict = {}

    def g(alpha):
        m = sum(alpha)
        if m not in memo:
            memo[m] = G(m)
        return memo[m] / mi_factorial(alpha)
    return g


def _float_growth_sequence(factor: Callable[[int], float]) -> Callable[[MultiIndex], float]:
    """a -> F(|a|) |a|!/a! in floats, F(m) = G(m)/m! = F(m-1) factor(m)
    being built once per m.  Neither G(m) nor a! is formed, so g stays
    finite where its value does; a float G(m) = m! theta^m passes the
    largest float near m = 170."""
    F = [1.0]

    def g(alpha):
        m = sum(alpha)
        while len(F) <= m:
            F.append(float(F[-1] * factor(len(F))))
        return F[m] * _spread(alpha)
    return g


def ahat_closed_factorial(theta, r, d: int, alpha: MultiIndex, k: int):
    """Closed form for |alpha| >= 1 under the factorial growth sequence:

    (2d)^k r^{k+1} theta^{2k+|alpha|}/alpha! * G((r+2)k+r+|alpha|) /
    ((k+1)! G((r+1)(k+1))).

    The Gamma ratio has integer offset k+|alpha|-1, so with rational theta, r
    the value is an exact Fraction; float inputs fall back to log-gamma.
    """
    m = mi_abs(alpha)
    if m < 1:
        raise ValueError("closed form requires |alpha| >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if _is_exact(theta) and _is_exact(r):
        base = Fraction((r + 1) * (k + 1))
        ratio = gamma_ratio_exact(base, k + m - 1)
        return (
            Fraction(2 * d) ** k
            * Fraction(r) ** (k + 1)
            * Fraction(theta) ** (2 * k + m)
            / mi_factorial(alpha)
            * ratio
            / math.factorial(k + 1)
        )
    return math.exp(Factorial(theta, r).closed_log(d, alpha, k))


def ahat_closed_exponential(theta, d: int, alpha: MultiIndex, k: int):
    """Closed form for |alpha| >= 1 under the exponential growth sequence:
    (2d)^k theta^{2k+|alpha|}/(alpha! k!) (k+1)^{k+|alpha|-2}."""
    m = mi_abs(alpha)
    if m < 1:
        raise ValueError("closed form requires |alpha| >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if _is_exact(theta):
        return (
            Fraction(2 * d) ** k
            * Fraction(theta) ** (2 * k + m)
            / (mi_factorial(alpha) * math.factorial(k))
            * Fraction(k + 1) ** (k + m - 2)
        )
    return math.exp(Exponential(theta).closed_log(d, alpha, k))


class _Regime:
    """What the two growth regimes share.  Each regime fixes the growth
    sequence g, the radius R(d) of the A' generating function, the
    horizon threshold, the closed-form A' terms, the alpha = 0 sup
    constant and the exact ratio (1+alpha_i) A'_{alpha+1_i}(k)/A'_alpha(k).
    side_scale is r (factorial) or 1 (exponential)."""

    def side_lhs(self) -> float:
        """theta side_scale, the left side of side-theta: side_lhs() >= sqrt(2/d)."""
        return float(self.theta) * self.side_scale


@dataclass(frozen=True)
class Factorial(_Regime):
    """Envelopes delta1 theta^m (r)(r+1)...(r+m-1) of the order-m derivatives."""

    theta: float
    r: float
    name: ClassVar[str] = "factorial"

    @property
    def side_scale(self) -> float:
        return float(self.r)

    def g(self) -> Callable[[MultiIndex], Fraction]:
        return g_factorial(self.theta, self.r)

    def envelope(self, m: int):
        """G(m) = theta^m (r)(r+1)...(r+m-1)."""
        return self.theta**m * pochhammer_falling(m, self.r)

    def radius(self, d: int) -> float:
        """(r+1)^{r+1} / (2 theta^2 r (r+2)^{r+2} d)."""
        if self.theta <= 0 or self.r <= 0 or d <= 0:
            raise ValueError("need theta, r, d > 0")
        theta, r = float(self.theta), float(self.r)
        return (r + 1) ** (r + 1) / (2 * theta**2 * r * (r + 2) ** (r + 2) * d)

    def horizon_threshold(self, d: int) -> float:
        """2^-(r+2) R, the bound of the radius condition."""
        return 2.0 ** (-(float(self.r) + 2)) * self.radius(d)

    def sup0(self) -> float:
        """sup of the alpha = 0 A' series over [0, R): 1/2 ((r+2)/(r+1))^{r+1}."""
        r = float(self.r)
        return 0.5 * ((r + 2) / (r + 1)) ** (r + 1)

    def ratio(self, m: int, k: int):
        """((r+2)k + r + |alpha|) theta, for |alpha| = m >= 1."""
        return ((self.r + 2) * k + self.r + m) * self.theta

    def closed_log(self, d: int, alpha: MultiIndex, k: int) -> float:
        """log of the closed form of ahat_closed_factorial; safe for large k."""
        m = mi_abs(alpha)
        if m < 1:
            raise ValueError("closed form requires |alpha| >= 1")
        theta, r = float(self.theta), float(self.r)
        return (
            k * math.log(2 * d)
            + (k + 1) * math.log(r)
            + (2 * k + m) * math.log(theta)
            - math.log(mi_factorial(alpha))
            + log_gamma_ratio((r + 2) * k + r + m, (r + 1) * (k + 1))
            - math.lgamma(k + 2)
        )

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

    def g(self) -> Callable[[MultiIndex], Fraction]:
        return g_exponential(self.theta)

    def envelope(self, m: int):
        """G(m) = theta^m."""
        return self.theta**m

    def radius(self, d: int) -> float:
        """1/(2 e theta^2 d)."""
        if self.theta <= 0 or d <= 0:
            raise ValueError("need theta, d > 0")
        return 1.0 / (2.0 * math.e * float(self.theta) ** 2 * d)

    def horizon_threshold(self, d: int) -> float:
        """R itself, the bound of the radius condition."""
        return self.radius(d)

    def sup0(self) -> float:
        """sup of the alpha = 0 A' series over [0, R): e/2."""
        return 0.5 * math.e

    def ratio(self, m: int, k: int):
        """(k+1) theta, for |alpha| = m >= 1."""
        return (k + 1) * self.theta

    def closed_log(self, d: int, alpha: MultiIndex, k: int) -> float:
        """log of the closed form of ahat_closed_exponential; safe for large k."""
        m = mi_abs(alpha)
        if m < 1:
            raise ValueError("closed form requires |alpha| >= 1")
        theta = float(self.theta)
        return (
            k * math.log(2 * d)
            + (2 * k + m) * math.log(theta)
            - math.log(mi_factorial(alpha))
            - math.lgamma(k + 1)
            + (k + m - 2) * math.log(k + 1)
        )

    def closed_log_terms(self, logs, m: int, k: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
        """logs plus the regime part of log A'_{m e_1}(k) over the array k,
        given log j! for j <= max(k) + 1: (k+1)^{k+m-2}/k!."""
        return logs - log_fact[:-1] + (k + m - 2) * np.log(k + 1)


@dataclass(frozen=True)
class DominationReport:
    regime: str
    lhs: float                 # regime.side_lhs()
    rhs: float                 # sqrt(2/d)
    passed: bool
    ratio_identity_checked: bool  # exact per-k ratio formula vs recursion values


def check_domination_condition(
    regime: Factorial | Exponential, d: int = 1, grid_kmax: int = 4, grid_alphamax: int = 3
) -> DominationReport:
    """Check (1+alpha_i) A'_{alpha+1_i}(k) >= sqrt(2/d) A'_alpha(k).

    Uses the regime's exact ratio formula (regime.ratio), whose minimum over
    k and alpha is regime.side_lhs(), the left side of side-theta; also
    validates the ratio identity against recursion values on a small grid,
    in rationals (the regime's parameters are converted to Fractions),
    including alpha = 0 where the closed form does not apply.
    """
    rhs = math.sqrt(2.0 / d)
    lhs = regime.side_lhs()
    exact = replace(regime, **{f.name: Fraction(getattr(regime, f.name)) for f in fields(regime)})

    # exact grid validation of the ratio identity, plus the raw inequality
    # (the latter is only expected to hold when the analytic verdict passes)
    identity_ok = True
    grid_ok = True
    zero = tuple(0 for _ in range(d))
    table = ahat_recursion(exact.g(), d, zero, grid_kmax)
    for al in mi_upto(grid_alphamax, d):
        for k in range(grid_kmax + 1):
            if (al, k) not in table.values:
                continue
            base = table.values[(al, k)]
            for i in range(1, d + 1):
                up = mi_add_unit(al, i)
                if (up, k) not in table.values:
                    continue
                lhs_val = (1 + al[i - 1]) * table.values[(up, k)]
                if mi_abs(al) >= 1 and lhs_val != exact.ratio(mi_abs(al), k) * base:
                    identity_ok = False
                if float(lhs_val) < rhs * float(base) - 1e-12:
                    grid_ok = False
    return DominationReport(
        regime=regime.name,
        lhs=lhs,
        rhs=rhs,
        passed=lhs >= rhs and grid_ok,
        ratio_identity_checked=identity_ok,
    )


def ahat_value_log(params, alpha_abs: int, k: int) -> float:
    """log A'_alpha(k) through the regime closed form, alpha of given order
    along the first coordinate; |alpha| >= 1."""
    return params.regime.closed_log(params.d, (alpha_abs,) + (0,) * (params.d - 1), k)


def ahat_log_terms(params, alpha_abs: int, kmax: int) -> np.ndarray:
    """ahat_value_log(params, alpha_abs, k) for k = 0..kmax, as one array.

    log k! is a cumulative sum of logs; the regime adds its own part of the
    closed form (regime.closed_log_terms).
    """
    m = alpha_abs
    if m < 1:
        raise ValueError("closed form requires |alpha| >= 1")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    k = np.arange(kmax + 1, dtype=float)
    # log j! for j = 0..kmax+1
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, kmax + 2)))))
    logs = (
        k * math.log(2 * params.d)
        + (2 * k + m) * math.log(float(params.regime.theta))
        - math.log(math.factorial(m))
    )
    return params.regime.closed_log_terms(logs, m, k, log_fact)


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, x), dtype=float, count=len(x))


def ahat0_scaled_series(params, s: float, kmax: int) -> list[float]:
    """Terms A'_0(k) s^k for k <= kmax, via the alpha=0 convolution
    A'_0(k+1) = d/(k+1) sum_{l1+l2=k} A'_{1}(l1) A'_{1}(l2), computed in
    scaled space to avoid overflow."""
    if s < 0:
        raise ValueError("s must be >= 0")
    if s > 0:
        b = np.exp(ahat_log_terms(params, 1, kmax)[:kmax] + np.arange(kmax) * math.log(s))
    else:
        b = np.zeros(kmax)  # every term past k = 0 carries a factor s
    conv = np.convolve(b, b)[:kmax]
    # A'_0(0) = g(0) = 1 in both regimes
    return [1.0] + (params.d * s * conv / np.arange(1, kmax + 1)).tolist()


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

    The weights go through every check a_recursion makes (preset form at
    each node of its collapsed table, the j = -1 refusal), but no table is
    built: the float engine, given x a and x c, carries the x-scaled terms
    x^k H(m, k)/m!, and the sum reads them along the one axis m = |alpha|.
    Nothing factorial-sized arises, so any ktrunc is safe inside the radius.

    The tail bound rests on the domination A(k) <= delta1 (delta1 delta2)^k
    A'(k), which is proven at theta* = params.with_side_theta(), the least
    theta >= the given one where side-theta holds (as in bound_report).  A
    is nondecreasing in theta coefficient by coefficient, so A at theta is
    bounded by A' at theta*.  The tail is therefore taken at theta*: it is
    infinite wherever R(theta*) <= (1-exp(-lam h)) delta1 delta2 < R(theta).

    `params` is a growth-parameter bundle exposing build_weights(), radius(),
    with_side_theta(), delta1, delta2 and d (see stability.GrowthParams).
    """
    alpha = tuple(alpha)
    x = 1.0 - math.exp(-lam * horizon)
    xa = x * float(params.delta1) * float(params.delta2)
    radius = params.radius()
    if not xa < radius:
        raise OutsideRadius(
            f"(1-exp(-lam*h)) * delta1 * delta2 = {xa:.6g} >= radius {radius:.6g}"
        )
    _, _, F, a, s = _preset_series(
        params.build_weights(), params.d, alpha, j, ktrunc, True, float
    )
    # x^k A_alpha(k) = x^k H(|alpha|, k)/alpha!, read along the axis m = |alpha|
    m = mi_abs(alpha)
    terms = _float_series(F, x * a, x * params.d * s, ktrunc)[:, m]
    value = math.exp(-lam * horizon) * _spread(alpha) * math.fsum(terms.tolist())
    # tail: A(k) <= delta1 (delta1 delta2)^k A'(k) at theta*, closed geometrically
    star = params.with_side_theta()
    if xa == 0:
        q_trunc, ratio = 0.0, 0.0
    elif m >= 1:
        log_a = ahat_log_terms(star, m, ktrunc + 1)[ktrunc:]
        q_trunc = _spread(alpha) * math.exp(log_a[0] + ktrunc * math.log(xa))
        ratio = xa * math.exp(log_a[1] - log_a[0])
    else:
        terms = ahat0_scaled_series(star, xa, ktrunc + 1)
        q_trunc = terms[ktrunc]
        ratio = terms[ktrunc + 1] / q_trunc if q_trunc > 0 else 0.0
    tail = math.exp(-lam * horizon) * float(params.delta1) * q_trunc * _geometric_tail(
        ratio, xa / star.radius()
    )
    return {
        "value": value,
        "tail_bound": tail,
        "ktrunc": ktrunc,
        "series_argument": x,
        "dominating_argument": xa,
        "radius": radius,
    }


def _geometric_tail(ratio: float, limit: float) -> float:
    """sum_{j>=1} rho^j for rho = max(limit, ratio), or inf when rho >= 1.

    `ratio` is the scaled term ratio at the truncation point and `limit`
    its value as k -> oo (x/R).  The ratios A'(k+1)/A'(k) are monotone in k
    with limit 1/R: increasing for alpha = 0 and small |alpha|, decreasing
    for larger |alpha| (in the exponential regime the ratio is
    2 d theta^2 (1+1/(k+1))^{k+|alpha|-1}).  So rho bounds every later
    ratio, where x/R alone would undercount a decreasing sequence's tail.
    """
    rho = max(ratio, limit)
    return rho / (1.0 - rho) if rho < 1.0 else math.inf


def _log_sup_terms(params, alpha_abs: int, ys, k_probe: int = 2000) -> list[float]:
    """log sup_k A'_alpha(k) y^{k+1} for each y in ys (0 < y < R), |alpha| >= 1,
    alpha along the first axis.

    One table of log A'(k) serves every y.  It stops at the first k where
    max(y) max(1/R, A'(k+1)/A'(k)) <= 1: the term ratios are monotone with
    limit 1/R, so no later term exceeds the k-th at any y in ys.  The table
    is built for k <= 16 and doubled, up to k_probe, until some k qualifies.
    """
    y_top = max(ys)
    inv_R = 1.0 / params.radius()
    kmax = min(16, k_probe)
    while True:
        logs = ahat_log_terms(params, alpha_abs, kmax)
        stop = np.flatnonzero(y_top * np.maximum(inv_R, np.exp(np.diff(logs))) <= 1.0)
        if stop.size:
            break
        if kmax == k_probe:
            raise ValueError(f"the terms at y = {y_top:.6g} still grow at k = {k_probe}")
        kmax = min(2 * kmax, k_probe)
    logs = logs[: stop[0] + 2]
    powers = np.arange(1, len(logs) + 1)
    return [float(np.max(logs + powers * math.log(y))) for y in ys]


def tracked_constant(params, alpha_abs: int, k_probe: int = 2000) -> float:
    """Supremum (in log space) of the exact prefactor sequence behind the
    factorial-regime bound

        A'_alpha(k) <= C (2 theta d)^{|alpha|} (2^{-(r+2)} R)^{-(k+1)},

    i.e. C = sup_k A'(k) (2^{-(r+2)}R)^{k+1} (2 theta d)^{-|alpha|}.  For
    |alpha| >= 1 the sup is exact (see _log_sup_terms); for alpha = 0 it is
    taken over the first min(k_probe, 400) terms.
    """
    y = params.scaled_radius()
    m = alpha_abs
    log_pref = -m * math.log(2 * float(params.regime.theta) * params.d)
    if m >= 1:
        return math.exp(_log_sup_terms(params, m, [y], k_probe)[0] + log_pref)
    best = -math.inf
    for tv in ahat0_scaled_series(params, y, min(k_probe, 400)):
        if tv > 0:
            best = max(best, math.log(tv) + math.log(y) + log_pref)
    return math.exp(best)


def bound_report(alpha: MultiIndex, params, lam: float, T: float, t: float = 0.0) -> dict:
    """Closed-form upper bound on the mean dominating weighted progeny
    exp(-lam h) sum_k (1-exp(-lam h))^k A_alpha(k), h = T - t.

    The bound rests on the domination A(k) <= delta1 (delta1 delta2)^k
    A'(k), which needs the side-theta condition theta r >= sqrt(2/d)
    (theta >= sqrt(2/d) in the exponential regime).  A is nondecreasing in
    theta coefficient by coefficient, so every A' quantity (radius R,
    tracked constant, series) is evaluated at theta* = max(theta,
    sqrt(2/d)/r) (resp. max(theta, sqrt(2/d))), where the condition holds;
    wherever it already holds at theta, theta* = theta.  With
    x = (1-exp(-lam h)) delta1 delta2 and R = R(theta*):

    factorial, |alpha| = 0:   delta1/2 ((r+2)/(r+1))^{r+1} exp(-lam h),
                              valid for x < R;
    factorial, |alpha| >= 1:  C(y) (2 theta d)^{|alpha|} exp(-lam h) delta1
                              / (y - x), with C(y) = sup_k A'(k) y^{k+1}
                              (2 theta d)^{-|alpha|}; the least over the
                              fixed set y in {2^{-(r+2)} R, R 2^{-j/2} for
                              j = 1..6} with y > x, so for x < R/sqrt(2);
                              for R/sqrt(2) <= x < R the series bound
                              delta1 exp(-lam h) (|alpha|!/alpha!)
                              sum_k A'_{|alpha| e_1}(k) x^k with its tail
                              closure (path "series");
    exponential, |alpha| = 0: delta1/2 e^{1-lam h}, valid for x < R;
    exponential, |alpha|>=1:  C_pt (d / log(R/x))^{|alpha|-1} delta1
                              exp(-lam h), valid for x < R,

    where C, C_pt are tracked constants reported separately from the
    formula factor.  The dict carries theta* as `theta`, R(theta*) as
    `radius` and, on the geometric-series path, the chosen `y`.  Outside
    the validity range it raises OutsideRadius.
    """
    h = T - t
    x = (1.0 - math.exp(-lam * h)) * float(params.delta1) * float(params.delta2)
    return dominating_bound(alpha, params, x, math.exp(-lam * h))


def dominating_bound(alpha: MultiIndex, params, x: float, decay: float) -> dict:
    """bound_report at dominating argument x, with decay in place of its
    exp(-lam h) factor (stability.hbound passes 1)."""
    alpha = tuple(alpha)
    m = mi_abs(alpha)
    params = params.with_side_theta()
    theta = float(params.regime.theta)
    delta1 = float(params.delta1)
    R = params.radius()
    spread = _spread(alpha)
    out = {
        "alpha": alpha,
        "regime": params.regime.name,
        "theta": theta,
        "series_argument": x,
        "radius": R,
    }
    if isinstance(params.regime, Factorial) and m >= 1:
        fixed = {params.scaled_radius(), *(R * 2.0 ** (-j / 2) for j in range(1, 7))}
        ys = sorted(y for y in fixed if y > x)
        if not ys:
            # past the largest y, R/sqrt(2): the series itself, whose value
            # keeps its tail closure and so stays an upper bound
            series = spread * _ghat_series_value(params, m, x)
            out.update(
                path="series",
                formula_factor=delta1 * decay,
                tracked_constant=series,
                wh_bound=delta1 * decay * series,
            )
            return out
        logs = _log_sup_terms(params, m, ys)
        y, log_sup = min(zip(ys, logs), key=lambda yl: yl[1] - math.log(yl[0] - x))
        formula = (2 * theta * params.d) ** m * decay * delta1 / (y - x)
        C = spread * math.exp(log_sup - m * math.log(2 * theta * params.d))
        out.update(
            path="geometric-series",
            y=y,
            formula_factor=formula,
            tracked_constant=C,
            wh_bound=C * formula,
        )
        return out
    if not x < R:
        raise OutsideRadius(f"x = {x:.6g} >= R = {R:.6g}")
    if m == 0:
        formula = params.regime.sup0() * decay
        out.update(
            path="sup-of-generating-function",
            formula_factor=formula,
            tracked_constant=delta1,
            wh_bound=delta1 * formula,
        )
    else:
        # pointwise constant: the true series value split against the
        # displayed (d/log(R/x))^{|alpha|-1} factor
        series = spread * _ghat_series_value(params, m, x)
        disp = (params.d / math.log(R / x)) ** (m - 1) if x > 0 else 1.0
        out.update(
            path="polylog-series",
            formula_factor=disp * delta1 * decay,
            tracked_constant=series / disp if disp > 0 else math.inf,
            wh_bound=delta1 * decay * series,
        )
    return out


def _ghat_series_value(params, alpha_abs: int, x: float, ktrunc: int = 400) -> float:
    """sum_k A'_alpha(k) x^k for |alpha| >= 1, alpha along the first axis,
    with geometric tail closure.

    The sum runs to K = 64, doubled up to ktrunc until the closure of the
    tail past K is below 1e-17 of the partial sum, and keeps that closure,
    so it stays an upper bound.  A table of terms costs nearly the same at
    any length up to a few hundred, so K starts where one table serves
    most calls.
    """
    R = params.radius()
    if not x < R:
        raise OutsideRadius(f"x = {x:.6g} >= R = {R:.6g}")
    if x == 0:
        return math.exp(ahat_log_terms(params, alpha_abs, 0)[0])
    K = min(64, ktrunc)
    while True:
        logs = ahat_log_terms(params, alpha_abs, K + 1)
        terms = np.exp(logs[:-1] + np.arange(K + 1) * math.log(x))
        ratio = x * math.exp(logs[K + 1] - logs[K])
        closure = float(terms[K] * _geometric_tail(ratio, x / R))
        if closure < 1e-17 * terms.sum() or K == ktrunc:
            return math.fsum([*terms.tolist(), closure])
        K = min(2 * K, ktrunc)


def _spread(alpha: MultiIndex) -> int:
    """|alpha|!/alpha!, the factor A'_alpha(k)/A'_{|alpha| e_1}(k)."""
    return math.factorial(mi_abs(alpha)) // mi_factorial(alpha)


def contact_hj_consistency(
    g: Callable[[MultiIndex], Fraction], d: int, kmax: int, alphamax: int
) -> bool:
    """Verify, coefficient by coefficient and exactly in rationals, that the
    weighted-progeny table built from the canonical unit-normalizing weights
    satisfies

      (k+1) A_alpha(k+1) = sum_{beta+gamma=alpha} sum_{l1+l2=k}
        [ A_gamma(l1) A_beta(l2)
          + 1/2 sum_i (1+gamma_i)(1+beta_i) A_{gamma+1_i}(l1) A_{beta+1_i}(l2) ],

    the coefficient form of dG/ds = G^2 + |grad G|^2 / 2.
    """
    w = WeightSpec(
        sigma_boundary=lambda al, jj: g(al),
        sigma_inner=lambda al, jj, kind: (
            Fraction(d + 1) * index_product(al)
            if kind == 0
            else Fraction(d + 1, 12)
            * (2 + al[kind - 1])
            * (3 + al[kind - 1])
            * index_product(al)
        ),
        kappa=Fraction(1),
    )
    values: dict = {}

    def A(al, k):
        if (al, k) not in values:
            values.update(a_recursion(w, d, al, 0, k, collapse_j=True).values)
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
