"""Monte Carlo aggregation of the path functional over independent trees.

The sample mean of the functional over trees started at (t, x) with a given
code estimates the corresponding component of the PDE solution.  One path,
`median_of_means`, samples and aggregates; the plain mean is its one-group
case, and `estimate_u` calls it so.

Reproducibility: sample i's tree is a pure function of (seed, i, label),
because every draw of a branch is a counter-based hash of a key derived
from (seed, i, label) (see `tree`).  The trees of an index range are grown
together as one `TreeBatch`; a range whose trees outgrow the frontier
budget is sampled again as two halves, and median-of-means groups partition
it again, yet no sample's value depends on which other samples share its
batch.  Results are therefore bit-identical however the range is split.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .lifetimes import LifetimeModel, validate_assumption_h
from .mechanism import Code
from .tree import Caps, TreeBatch, evaluate_batch, evaluate_in_parts

log = logging.getLogger("branchpde")


class AssumptionHViolated(RuntimeError):
    """The lifetime model fails the positivity/survival-domination check."""


class AllSamplesCapped(RuntimeError):
    """Every sampled tree hit the caps; no estimate can be formed."""


@dataclass(frozen=True)
class CodeOracle:
    """Evaluator of terminal code values: (code, point) -> the normalized
    derivative alpha!^{-1} d^alpha phi(x) (j=-1) or
    alpha!^{-1} d^alpha [f^{(j)}(phi)](x) (j>=0).

    The point is one point (a length-d sequence), and the evaluator returns
    a float; or it is an (m, d) array of points, and the evaluator returns
    the (m,) array of their values, or one float that stands for all of
    them.  The estimator calls it with arrays, once per code of the
    survivors it holds, a group of one survivor included, and with one
    point at t = T.  Only the value asked for is needed: the b2 oracle forms
    coefficient |alpha| of its Taylor jet alone, not the whole jet, and runs
    a one-row array as its point."""

    evaluator: Callable[[Code, Sequence[float]], float]

    def __call__(self, code: Code, x) -> float:
        return self.evaluator(code, x)


@dataclass(frozen=True)
class ProblemSetup:
    """What the estimator needs: a code oracle, a lifetime model, and d."""

    oracle: CodeOracle
    model: LifetimeModel
    d: int


@dataclass(frozen=True)
class TreeStats:
    """Sizes of the uncapped trees behind an estimate."""

    branches_mean: float
    branches_p99: int      # nearest-rank 99th percentile
    branches_max: int
    max_generation: int


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n_samples: int
    n_capped: int
    stats: Optional[TreeStats] = None  # None when no tree was sampled (t = T)


class _Samples(NamedTuple):
    """Per-index results over a range of sample indices."""

    values: np.ndarray    # path functional, NaN where capped
    capped: np.ndarray
    branches: np.ndarray  # branches per tree
    depth: np.ndarray     # largest generation per tree


def _sample_values(
    setup: ProblemSetup,
    c: Code,
    t: float,
    x,
    T: float,
    indices: range,
    seed: int,
    caps: Caps,
) -> _Samples:
    """Grow and evaluate the trees of `indices` as one batch, or in parts
    when the batch outgrows the frontier budget."""
    parts = evaluate_in_parts(
        lambda r: TreeBatch(c, t, x, T, setup.model, seed, r, caps),
        lambda batch: evaluate_batch(batch, setup.oracle),
        indices,
    )
    return _concat([_Samples(values, b.capped, b.branches, b.depth) for b, values in parts])


def _concat(parts: Sequence[_Samples]) -> _Samples:
    return _Samples(*(np.concatenate(column) for column in zip(*parts)))


def _spread(values: np.ndarray, mean: float, per: int) -> float:
    """sqrt(sum (v - mean)^2 / (n - 1) / per) by numpy pairwise summation:
    the standard error of the mean at per = n, the sample standard deviation
    at per = 1.

    A spread of finite values that differ and that reads 0 or inf lost its
    squared deviations to underflow or overflow; formed on values / max|v|
    and scaled back, it keeps them.  Equal values keep their spread: formed
    again, it could read the rounding of their mean instead of 0.  Overflow
    is not warned of, as the rescued spread replaces whatever overflowed
    (np.ptp of values near the float limit too)."""

    def spread(v: np.ndarray, mu: float) -> float:
        return math.sqrt(float(np.sum((v - mu) ** 2)) / (v.size - 1) / per)

    with np.errstate(over="ignore"):
        out = spread(values, mean)
        if not 0.0 < out < math.inf:
            vmax = float(np.max(np.abs(values)))
            if vmax < math.inf and np.ptp(values) > 0:
                out = vmax * spread(values / vmax, mean / vmax)
    return out


def _mean(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error, by numpy pairwise summation."""
    mean = float(np.sum(values)) / values.size
    if values.size < 2:
        return mean, float("inf")
    return mean, _spread(values, mean, values.size)


def _tree_stats(s: _Samples) -> TreeStats:
    sizes = np.sort(s.branches[~s.capped])
    return TreeStats(
        branches_mean=float(np.sum(sizes)) / sizes.size,
        branches_p99=int(sizes[max(math.ceil(0.99 * sizes.size) - 1, 0)]),
        branches_max=int(sizes[-1]),
        max_generation=int(np.max(s.depth[~s.capped])),
    )


def estimate_u(
    c: Code,
    t: float,
    x,
    T: float,
    setup: ProblemSetup,
    n: int,
    seed: int,
    caps: Caps = Caps(),
    workers: int = 1,  # kept as callers (bench/workloads.py) pass 1; runs in one process
) -> Estimate:
    """Sample mean and standard error over n trees: median_of_means with one group."""
    if workers != 1:
        raise ValueError(f"sampling runs in one process, so workers must be 1, got {workers}")
    return median_of_means(c, t, x, T, setup, n, 1, seed, caps)


def median_of_means(
    c: Code,
    t: float,
    x,
    T: float,
    setup: ProblemSetup,
    n: int,
    groups: int,
    seed: int,
    caps: Caps = Caps(),
) -> Estimate:
    """Median of per-group means over a contiguous partition of the sample
    index range into `groups` parts whose sizes differ by at most one;
    heavy-tail mitigation for the product functional.

    Capped samples are excluded and reported in n_capped (truncating them
    instead would bias silently).  Sums are numpy pairwise sums in index
    order, so the result does not depend on chunking.  groups=1 returns the
    plain mean and its standard error.  Otherwise std_error is the asymptotic
    median factor sqrt(pi/2) times the spread of group means, a diagnostic,
    not a guarantee, and a warning is logged when the median and the plain
    mean disagree by more than 5 standard errors.  A code or point whose
    dimension is not setup.d raises ValueError.
    """
    if not len(c.alpha) == len(x) == setup.d:
        raise ValueError(f"code {c} and point {tuple(x)} must have the problem's dimension d = {setup.d}")
    if groups < 1 or groups % 2 == 0:
        raise ValueError("groups must be 1 or an odd integer >= 3")
    if n < groups:
        raise ValueError(f"need n >= groups, got n={n}, groups={groups}")
    report = validate_assumption_h(setup.model, T if T > t else max(T, 1e-12))
    if not report.ok:
        raise AssumptionHViolated("; ".join(report.failures))
    if t == T:
        # degenerate: no tree, the estimate is the terminal oracle value
        return Estimate(float(setup.oracle(c, tuple(float(v) for v in x))), 0.0, n, 0)
    s = _sample_values(setup, c, t, x, T, range(n), seed, caps)
    kept = ~s.capped
    values = s.values[kept]
    if values.size == 0:
        raise AllSamplesCapped(f"all {n} samples exceeded caps {caps}")
    mean, se = _mean(values)
    if groups > 1:
        plain, plain_se = mean, se
        means = []
        bounds = [i * n // groups for i in range(groups + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            group = s.values[lo:hi][kept[lo:hi]]
            if group.size == 0:
                raise AllSamplesCapped(f"group {lo}:{hi} entirely capped")
            means.append(float(np.sum(group)) / group.size)
        means = np.array(means)
        mean = float(np.median(means))
        spread = _spread(means, float(np.sum(means)) / groups, 1)
        se = math.sqrt(math.pi / 2) * spread / math.sqrt(groups)
        gap = abs(mean - plain)
        scale = max(se, plain_se, 1e-300)
        if gap > 5.0 * scale:
            log.warning(
                "median-of-means %.6g and mean %.6g disagree by %.1f SE "
                "at (t=%s, x=%s); the functional may be heavy-tailed",
                mean, plain, gap / scale, t, x,
            )
    return Estimate(mean, se, n, n - values.size, _tree_stats(s))


def write_csv(
    fileobj,
    rows: Sequence[tuple[float, tuple, Estimate]],
    code: Code,
    seed: int,
    seed_offsets: Optional[Sequence[int]] = None,
) -> None:
    """CSV columns: t, x_1..x_d, code_alpha, code_j, mean, std_error, n,
    n_capped, seed."""
    d = len(rows[0][1]) if rows else 0
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(
        ["t"] + [f"x_{i+1}" for i in range(d)]
        + ["code_alpha", "code_j", "mean", "std_error", "n", "n_capped", "seed"]
    )
    offsets = seed_offsets if seed_offsets is not None else [0] * len(rows)
    alpha_txt = "|".join(str(a) for a in code.alpha)
    for (t, x, est), off in zip(rows, offsets):
        writer.writerow(
            [repr(float(t))] + [repr(float(v)) for v in x] + [alpha_txt, code.j]
            + [repr(est.mean), repr(est.std_error), est.n_samples, est.n_capped, seed + off]
        )
