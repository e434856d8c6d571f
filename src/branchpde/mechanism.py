"""Derivative codes, the branching mechanism, its normalized offspring
distribution, and the binary dominating mechanism.

A code (alpha, j) tags a branch with the operator alpha!^{-1} d^alpha (j=-1)
or alpha!^{-1} d^alpha o f^{(j)} (j>=0).  A branch coded (alpha,-1) has a
single offspring entry; a branch coded (alpha,j>=0) has (d+1) prod(1+alpha_k)
entries arranged in d+1 families:

  kind 0       weight 1,                          children (alpha-beta, 0), (beta, j+1)
  kind i=1..d  weight -(1+beta_i)(1+alpha_i-beta_i)/2,
               children (alpha-beta+1_i, -1), (beta+1_i, j+1)

The canonical entry order is: the kind-0 block with beta lexicographic, then
the kind-1..d blocks each with beta lexicographic.  Inverse-CDF sampling
over this order is lazy: one digit walk picks the kind block, then beta's
digits most significant first, uniform at each coordinate but the kind's
own, i, where digit l weighs (1+l)(1+alpha_i-l).  Kind 0 owns no coordinate.

`offspring_entries` enumerates the entries once, with no Fraction formed,
and `offspring_set` adds their exact weights: with `offspring_prob` and
`sample_offspring` they are the exact scalar reference.  Their array form
takes codes as an (n, d) alpha column and a j column: `draw_entries`, the
one array draw, walks each row's digits as `sample_offspring` does and
gives its entry with z1/q in floats, and `spawn` forms the children's
codes.  A code fixes d = len(alpha).

The dominating mechanism of a code (alpha, j >= 0) has the same entries,
order and probabilities, except that the first child of a kind-i entry is
(alpha-beta+1_i, 0): every death spawns two children, none of them a pure
derivative.  So one inverse-CDF layout samples both, and `spawn` recodes
that child.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple, Tuple

import numpy as np

from .multiindex import (
    MultiIndex,
    mi_add_unit,
    mi_enumerate_below,
)


class Code(NamedTuple):
    alpha: MultiIndex
    j: int  # -1: pure derivative; >= 0: composed with the j-th derivative of f


class MechanismEntry(NamedTuple):
    weight: Fraction          # the scalar z1
    children: Tuple[Code, ...]
    kind: int                 # 0 or the direction i in 1..d
    beta: MultiIndex


def index_product(alpha: MultiIndex) -> int:
    """prod_k (1 + alpha_k)."""
    out = 1
    for a in alpha:
        out *= 1 + a
    return out


def offspring_entries(c: Code) -> Iterator[tuple[int, MultiIndex, tuple[Code, ...]]]:
    """(kind, beta, children) of each entry of M(c), in canonical order,
    with no Fraction formed; d is len(c.alpha)."""
    alpha, j = c
    if j < 0:
        yield 0, (0,) * len(alpha), (Code(alpha, 0),)
        return
    betas = mi_enumerate_below(alpha)
    for kind in range(len(alpha) + 1):
        for beta in betas:
            yield kind, beta, _children(c, kind, beta)


def _children(c: Code, kind: int, beta: MultiIndex) -> tuple[Code, Code]:
    """The children of the entry (kind, beta) of a code (alpha, j >= 0)."""
    alpha, j = c
    rest = tuple(a - b for a, b in zip(alpha, beta))
    if kind == 0:
        return Code(rest, 0), Code(beta, j + 1)
    return Code(mi_add_unit(rest, kind), -1), Code(mi_add_unit(beta, kind), j + 1)


def _entry(c: Code, kind: int, beta: MultiIndex, children: tuple[Code, ...]) -> MechanismEntry:
    """The entry (kind, beta) of M(c) with these children and its exact weight z1."""
    if kind == 0:
        return MechanismEntry(Fraction(1), children, 0, beta)
    b, a = beta[kind - 1], c.alpha[kind - 1]
    return MechanismEntry(Fraction(-(1 + b) * (1 + a - b), 2), children, kind, beta)


def offspring_set(c: Code) -> list[MechanismEntry]:
    """All entries of M(c) in canonical order, each with its exact weight."""
    return [_entry(c, *entry) for entry in offspring_entries(c)]


def offspring_prob(c: Code, entry: MechanismEntry) -> Fraction:
    """q_c(entry), exact, with d = len(c.alpha).

    kind 0:  1 / ((d+1) prod(1+alpha_k))
    kind i:  6 (1+beta_i)(1+alpha_i-beta_i) /
             ((d+1) (2+alpha_i)(3+alpha_i) prod(1+alpha_k))
    """
    alpha, j = c
    if j < 0:
        if entry.children != (Code(alpha, 0),):
            raise ValueError(f"entry {entry} not in the offspring set of {c}")
        return Fraction(1)
    _check_membership(c, entry)
    d, prod = len(alpha), index_product(alpha)
    if entry.kind == 0:
        return Fraction(1, (d + 1) * prod)
    i = entry.kind
    bi, ai = entry.beta[i - 1], alpha[i - 1]
    return Fraction(
        6 * (1 + bi) * (1 + ai - bi),
        (d + 1) * (2 + ai) * (3 + ai) * prod,
    )


def _check_membership(c: Code, entry: MechanismEntry) -> None:
    alpha, kind, beta = c.alpha, entry.kind, entry.beta
    below = len(beta) == len(alpha) and all(0 <= b <= a for b, a in zip(beta, alpha))
    member = 0 <= kind <= len(alpha) and below
    if not (member and entry == _entry(c, kind, beta, _children(c, kind, beta))):
        raise ValueError(f"entry {entry} not in the offspring set of {c}")


def sample_offspring(c: Code, u: float) -> MechanismEntry:
    """Inverse-CDF sample of q_c over the canonical order, lazily, with
    d = len(c.alpha).

    Each of the d+1 kind blocks carries mass 1/(d+1) exactly; within one,
    beta's digits are walked most significant first, uniform at each
    coordinate but the kind's own i, where digit l weighs (1+l)(1+alpha_i-l).
    Kind 0 has no coordinate of its own (position 0 names none).
    """
    alpha, j = c
    if j < 0:
        return offspring_set(c)[0]
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform variate must lie in [0, 1), got {u}")
    d = len(alpha)
    v = u * (d + 1)
    kind = min(int(v), d)
    frac = min(v - kind, 1.0)
    beta = []
    for pos, a in enumerate(alpha, start=1):
        if pos != kind:
            # uniform digit
            val = min(int(frac * (a + 1)), a)
            frac = min(frac * (a + 1) - val, 1.0)
        else:
            weights = [(1 + l) * (1 + a - l) for l in range(a + 1)]
            total = sum(weights)
            target = frac * total
            acc = 0
            val = a
            for l, w in enumerate(weights):
                if target < acc + w:
                    val = l
                    frac = min((target - acc) / w, 1.0)
                    break
                acc += w
        beta.append(val)
    beta = tuple(beta)
    return _entry(c, kind, beta, _children(c, kind, beta))


def draw_entries(alpha: np.ndarray, j: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries that codes (alpha[r], j[r]) take at their deaths, at
    offspring uniforms u[r]: a row of j >= 0 the entry that
    `sample_offspring` picks, by the same digit walk with the same float
    arithmetic (one loop for every kind: uniform at each coordinate but the
    kind's own, and kind 0 owns none), a row of j = -1 its single entry
    (kind 0, beta 0).  Per row its kind, its beta and its z1/q, as
    float(entry.weight / offspring_prob(code, entry)).  alpha is an (n, d)
    integer array; any other shape, a uniform of a j >= 0 row outside
    [0, 1), and a j >= 0 code whose law needs integers past the int64 range
    raise ValueError, the last naming the first such alpha row."""
    alpha = np.asarray(alpha, dtype=np.int64)
    if alpha.ndim != 2:
        raise ValueError(f"alpha must be an (n, d) array, got shape {alpha.shape}")
    n, d = alpha.shape
    kind, beta, ratio = np.zeros(n, dtype=np.int64), np.zeros_like(alpha), np.ones(n)
    coded = np.flatnonzero(j >= 0)
    alpha, u = alpha[coded], u[coded]
    if np.any(~((u >= 0.0) & (u < 1.0))):
        raise ValueError("uniform variates must lie in [0, 1)")
    # the largest integers formed here for a row are below (d+1)
    # prod(1+alpha_k) (3+a)^2 and 3 (3+a)^3, a = the row's max alpha_i
    top = alpha.max(axis=1, initial=0) + 3.0
    need = np.maximum((d + 1) * np.prod(alpha + 1.0, axis=1) * top**2, 3 * top**3)
    over = np.flatnonzero(need >= _INT_LIMIT)
    if len(over):
        raise ValueError(
            f"the offspring law of alpha = {tuple(alpha[over[0]].tolist())} needs integers up to "
            f"{need[over[0]]:.3g}, at or past the sampler's bound 2^62 (half the int64 range)"
        )
    v = u * (d + 1)
    walked = np.minimum(v.astype(np.int64), d)
    frac = np.minimum(v - walked, 1.0)
    # the mass of the entry's kind block: prod_k (1+alpha_k) for kind 0 and,
    # with a = alpha_i, prod_{k != i} (1+alpha_k) (1+a)(2+a)(3+a)/6 for kind
    # i, so that q of the entry is its weight (1, or (1+beta_i)(1+a-beta_i))
    # over d+1 times the mass
    mass = np.prod(alpha + 1, axis=1)
    drawn = np.empty_like(alpha)
    for pos in range(1, d + 1):
        a = alpha[:, pos - 1]
        # uniform digit
        scaled = frac * (a + 1)
        val = np.minimum(scaled.astype(np.int64), a)
        # weighted digit: weights (1+l)(1+a-l), l = 0..a, on coordinate
        # `kind`.  The walk stops at the first l whose cumulative weight
        # cum(l) exceeds the target, so the digit is the number of l < a
        # with cum(l) <= target.  The target stays below cum(a), the total,
        # unless frac = 1, where both give the digit a and next frac 1.
        weighted = np.flatnonzero(walked == pos)
        aw = a[weighted]
        block = (aw + 1) * (aw + 2) * (aw + 3) // 6  # the sum of the weights
        target = frac[weighted] * block
        mass[weighted] = mass[weighted] // (aw + 1) * block
        vw = _weighted_digits(aw, target)
        val[weighted] = vw
        drawn[:, pos - 1] = val
        if pos < d:  # the last digit leaves no fraction to walk on
            frac = np.minimum(scaled - val, 1.0)
            acc = _weight_sum(aw, vw)
            frac[weighted] = np.minimum((target - acc) / ((1 + vw) * (1 + aw - vw)), 1.0)
    kind[coded], beta[coded] = walked, drawn
    # z1/q is (d+1) times the block mass for kind 0, and -(d+1)/2 times it
    # for kind i, where z1 is -1/2 times the weight: the integer is rounded
    # once and halving it is exact, as in the Fraction mechanism
    ratio[coded] = (d + 1) * mass / (1 - 3 * (walked > 0))
    return kind, beta, ratio


def spawn(
    alpha: np.ndarray, j: np.ndarray, kind: np.ndarray, beta: np.ndarray, dominating: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The children of the entries (kind[r], beta[r]) of codes (alpha[r],
    j[r]) (`draw_entries`), in row and then label order: per child its row,
    its place k among the row's children, and its code as alpha and j
    columns.  They are the entry's children, but that on the dominating
    chain the first child of a kind-i entry is coded (alpha-beta+1_i, 0)."""
    n, d = alpha.shape
    # rows 2r and 2r + 1 hold the children (alpha-beta+1_i, -1) and
    # (beta+1_i, j+1) of row r, with 1_0 = 0 and the first child at j = 0
    # for kind 0; the only child of a j = -1 row, (alpha, 0), is the first
    # child of its kind-0 entry of beta 0
    unit = kind[:, None] == np.arange(1, d + 1)
    alphas, js = np.empty((n, 2, d), dtype=np.int64), np.empty((n, 2), dtype=np.int64)
    np.subtract(alpha, beta, out=alphas[:, 0])
    alphas[:, 0] += unit
    np.add(beta, unit, out=alphas[:, 1])
    np.multiply(kind > 0, 0 if dominating else -1, out=js[:, 0])
    np.add(j, 1, out=js[:, 1])
    spawned = np.ones((n, 2), dtype=bool)
    spawned[:, 1] = j >= 0
    rows = np.flatnonzero(spawned)
    return rows >> 1, (rows & 1) + 1, np.take(alphas.reshape(-1, d), rows, axis=0), np.take(js, rows)


# the integers of the array mechanism stay below this, half of int64's range
_INT_LIMIT = 2.0**62


def _weight_sum(a, s):
    """sum_{m < s} (1+m)(1+a-m), the cumulative weight cum(s - 1), exact in
    integers; 0 at s = 0."""
    return s * (s + 1) * (3 * a + 5 - 2 * s) // 6


def _weighted_digits(a: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per row, the number of l < a[r] whose cumulative weight cum(l), as a
    float, is <= target[r].  cum increases with l, so the count is the
    largest s <= a[r] with cum(s - 1) <= target[r] (or 0), found bit by bit
    from the highest."""
    digit = np.zeros_like(a)
    for bit in reversed(range(int(a.max(initial=0)).bit_length())):
        reach = digit + (1 << bit)
        digit += (1 << bit) * ((reach <= a) & (_weight_sum(a, reach) <= target))
    return digit
