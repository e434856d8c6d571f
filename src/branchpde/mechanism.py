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
the kind-1..d blocks each with beta lexicographic.  Inverse-CDF sampling is
defined against this order and is evaluated lazily (per digit), never by
materializing the whole set.

The dominating mechanism of a code (alpha, j >= 0) has the same entries,
order and probabilities, except that the first child of a kind-i entry is
(alpha-beta+1_i, 0): every death spawns two children, none of them a pure
derivative.  So one inverse-CDF layout samples both, and `tree.CodeTable`
holds either chain's rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Tuple

import numpy as np

from .multiindex import (
    MultiIndex,
    mi_add_unit,
    mi_enumerate_below,
    mi_sub,
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


def _entry(c: Code, d: int, kind: int, beta: MultiIndex) -> MechanismEntry:
    alpha, j = c
    if kind == 0:
        return MechanismEntry(
            weight=Fraction(1),
            children=(Code(mi_sub(alpha, beta), 0), Code(beta, j + 1)),
            kind=0,
            beta=beta,
        )
    i = kind
    w = Fraction(-(1 + beta[i - 1]) * (1 + alpha[i - 1] - beta[i - 1]), 2)
    return MechanismEntry(
        weight=w,
        children=(
            Code(mi_add_unit(mi_sub(alpha, beta), i), -1),
            Code(mi_add_unit(beta, i), j + 1),
        ),
        kind=i,
        beta=beta,
    )


def offspring_set(c: Code, d: int) -> list[MechanismEntry]:
    """All entries of M(c) in canonical order."""
    alpha, j = c
    if j < 0:
        return [
            MechanismEntry(
                weight=Fraction(1),
                children=(Code(alpha, 0),),
                kind=0,
                beta=tuple(0 for _ in alpha),
            )
        ]
    out = []
    for kind in range(d + 1):
        for beta in mi_enumerate_below(alpha):
            out.append(_entry(c, d, kind, beta))
    return out


def offspring_prob(c: Code, entry: MechanismEntry, d: int) -> Fraction:
    """q_c(entry), exact.

    kind 0:  1 / ((d+1) prod(1+alpha_k))
    kind i:  6 (1+beta_i)(1+alpha_i-beta_i) /
             ((d+1) (2+alpha_i)(3+alpha_i) prod(1+alpha_k))
    """
    alpha, j = c
    if j < 0:
        if entry.children != (Code(alpha, 0),):
            raise ValueError(f"entry {entry} not in the offspring set of {c}")
        return Fraction(1)
    _check_membership(c, entry, d)
    prod = index_product(alpha)
    if entry.kind == 0:
        return Fraction(1, (d + 1) * prod)
    i = entry.kind
    bi, ai = entry.beta[i - 1], alpha[i - 1]
    return Fraction(
        6 * (1 + bi) * (1 + ai - bi),
        (d + 1) * (2 + ai) * (3 + ai) * prod,
    )


def _check_membership(c: Code, entry: MechanismEntry, d: int) -> None:
    alpha = c.alpha
    if not (0 <= entry.kind <= d):
        raise ValueError(f"entry kind {entry.kind} out of range for d={d}")
    if len(entry.beta) != len(alpha) or any(
        not 0 <= b <= a for b, a in zip(entry.beta, alpha)
    ):
        raise ValueError(f"entry beta {entry.beta} not below alpha {alpha}")
    if entry != _entry(c, d, entry.kind, entry.beta):
        raise ValueError(f"entry {entry} not in the offspring set of {c}")


def _beta_from_rank(alpha: MultiIndex, rank: int) -> MultiIndex:
    """rank -> beta in lexicographic order, mixed-radix with last digit fastest."""
    digits = []
    for a in reversed(alpha):
        digits.append(rank % (a + 1))
        rank //= a + 1
    return tuple(reversed(digits))


def sample_offspring(c: Code, d: int, u: float) -> MechanismEntry:
    """Inverse-CDF sample of q_c over the canonical order, lazily.

    Each of the d+1 kind blocks carries total mass 1/(d+1) exactly; within
    the kind-0 block beta is uniform, and within a directional block the
    digits of beta are walked most-significant first with per-digit weights
    (1+l)(1+alpha_i-l) on coordinate i and uniform elsewhere.
    """
    alpha, j = c
    if j < 0:
        return offspring_set(c, d)[0]
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform variate must lie in [0, 1), got {u}")
    v = u * (d + 1)
    kind = min(int(v), d)
    frac = min(v - kind, 1.0)
    if kind == 0:
        total = index_product(alpha)
        rank = min(int(frac * total), total - 1)
        return _entry(c, d, 0, _beta_from_rank(alpha, rank))
    i = kind
    beta = []
    for pos, a in enumerate(alpha, start=1):
        if pos != i:
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
    return _entry(c, d, i, tuple(beta))


def sample_offspring_indices(alpha: np.ndarray, d: int, u: np.ndarray) -> np.ndarray:
    """`sample_offspring` over rows: for codes (alpha[r], j >= 0) and
    uniforms u[r], the index in offspring_set of the entry that
    sample_offspring picks, by the same digit walk with the same float
    arithmetic.  alpha is an (n, d) integer array."""
    alpha = np.asarray(alpha, dtype=np.int64).reshape(-1, d)
    if np.any(~((u >= 0.0) & (u < 1.0))):
        raise ValueError("uniform variates must lie in [0, 1)")
    v = u * (d + 1)
    kind = np.minimum(v.astype(np.int64), d)
    frac = np.minimum(v - kind, 1.0)
    total = np.prod(alpha + 1, axis=1)
    rank0 = np.minimum((frac * total).astype(np.int64), total - 1)
    rank = np.zeros(alpha.shape[0], dtype=np.int64)
    for pos in range(1, d + 1):
        a = alpha[:, pos - 1]
        # uniform digit
        scaled = frac * (a + 1)
        val = np.minimum(scaled.astype(np.int64), a)
        next_frac = np.minimum(scaled - val, 1.0)
        # weighted digit: weights (1+l)(1+a-l), l = 0..a, on coordinate
        # `kind`.  The walk stops at the first l whose cumulative weight
        # cum(l) exceeds the target, so the digit is the number of l < a
        # with cum(l) <= target.  The target stays below cum(a), the total,
        # unless frac = 1, where both give the digit a and next frac 1.
        weighted = np.flatnonzero(kind == pos)
        aw = a[weighted]
        target = frac[weighted] * ((aw + 1) * (aw + 2) * (aw + 3) // 6)
        vw = np.count_nonzero(_cumulative_weights(aw) <= target[:, None], axis=1)
        acc = _cumulative_weight(aw, vw - 1)
        val[weighted] = vw
        next_frac[weighted] = np.minimum((target - acc) / ((1 + vw) * (1 + aw - vw)), 1.0)
        rank = rank * (a + 1) + val
        frac = next_frac
    return np.where(kind == 0, rank0, kind * total + rank)


def _cumulative_weight(a, l):
    """sum_{m=0..l} (1+m)(1+a-m), exact in integers; 0 at l = -1."""
    return (a + 2) * (l + 1) * (l + 2) // 2 - (l + 1) * (l + 2) * (2 * l + 3) // 6


def _cumulative_weights(a: np.ndarray) -> np.ndarray:
    """Row r: the cumulative weights cum(l) of digit bound a[r] for
    l = 0..max(a)-1, as floats, +inf where l >= a[r]."""
    bound = np.arange(int(a.max(initial=0)) + 1)[:, None]
    l = np.arange(bound.size - 1)
    table = _cumulative_weight(bound, l).astype(float)
    table[l >= bound] = np.inf
    return table[a]

