"""Sampling of the coded branching diffusion and of its binary dominating
chain; evaluation of the path functional and of multiplicative weighted
progenies.

Reproducibility contract: every random draw is a counter-based hash, in the
manner of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC'11).  Each branch has a 64-bit key derived from (seed, sample_index,
label): the root's key is mix(mix(seed), sample_index), and child k of a
branch with key K has key mix(K, k).  Draw c of a branch is hash(K, c), the
(c+1)-th output of a splitmix64 stream started at K, read as a uniform in
[0, 1) with 53 random bits.  A tree is therefore a pure function of (seed,
sample_index, label), whatever the order, batch or worker in which its
branches are drawn.  The per-branch draw order is fixed by counter: the
lifetime uniform is draw 0, the d displacement normals (Box-Muller on the
consecutive pairs of draws 1, 2, ..., one pair per two normals) follow, and
the offspring uniform comes right after them.

Two samplers share these draws.  `sample_tree` grows one tree of the
original chain branch by branch through `branch_rng` and records every
branch; `evaluate_functional` (with the exact Fraction mechanism) and
`weighted_progeny` multiply its factors.  They are the reference that the
tests use.  `TreeBatch` grows the trees of a range of sample indices
together, one generation at a time, as arrays, and `evaluate_batch` and
`weighted_progeny_batch` compute their path functionals and weighted
progenies.  The batch reads each code's offspring entries from a
`CodeTable`, whose rows come from the closed form of z1/q.

The batch grows either chain with one draw layout.  The dominating chain
differs in one decision, which the `CodeTable` holds: the first child of a
directional entry is (alpha-beta+1_i, 0), not (alpha-beta+1_i, -1), so
every death spawns two children.  A dominating batch starts at a code
(alpha, j >= 0) and 0 in R^d with exponential(lam) lifetimes, and ignores
the positions it draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .lifetimes import LifetimeModel
from .mechanism import (
    Code,
    MechanismEntry,
    index_product,
    offspring_prob,
    sample_offspring,
    sample_offspring_indices,
)
from .multiindex import mi_enumerate_below

Label = tuple[int, ...]


class CapExceeded(RuntimeError):
    """Tree grew past the configured caps; the sample must be discarded."""


@dataclass(frozen=True)
class Caps:
    max_branches: int = 10**6
    max_generation: int = 200


@dataclass(frozen=True)
class BranchRecord:
    label: Label
    code: Code
    birth_time: float
    death_time: float                    # > T means the branch survived to T
    birth_position: Optional[tuple[float, ...]]
    terminal_position: Optional[tuple[float, ...]]  # present iff survived
    offspring_entry: Optional[MechanismEntry]       # present iff died <= T

    @property
    def generation(self) -> int:
        return len(self.label)


@dataclass(frozen=True)
class TreeSample:
    branches: tuple[BranchRecord, ...]
    survived_labels: tuple[Label, ...]
    died_labels: tuple[Label, ...]
    generation_counts: dict[int, int]

    def __len__(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class WeightSpec:
    """Positive weights attached to branches: sigma_boundary(alpha, j>=-1)
    for branches alive at the horizon, sigma_inner(alpha, j, kind) for
    branches that split, and the boundary inflation kappa >= 1 used by the
    dominating chain."""

    sigma_boundary: Callable[[tuple, int], float]
    sigma_inner: Callable[[tuple, int, int], float]
    kappa: float = 1.0

    def boundary_dominating(self, alpha, j) -> float:
        return self.kappa * self.sigma_boundary(alpha, j)


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's stream increment

# The helpers below take keys either as Python ints (one branch) or as 1-d
# uint64 arrays (a generation of branches), with the same arithmetic mod
# 2^64: Python ints are masked, uint64 arrays wrap on their own.


def _fmix(z):
    """splitmix64's output function."""
    if isinstance(z, np.ndarray):
        z = z ^ (z >> 30)  # a new array, worked on in place from here
        z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27
        z *= 0x94D049BB133111EB
        z ^= z >> 31
        return z
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _hash(key, counter):
    """hash(key, counter): output counter + 1 of a splitmix64 stream started
    at the key."""
    if isinstance(counter, np.ndarray):
        step = counter + 1
        step *= _GAMMA
    else:
        step = ((counter + 1) * _GAMMA) & _MASK
    z = key + step
    return _fmix(z if isinstance(z, np.ndarray) else z & _MASK)


def _mix(key, k):
    """mix(key, k): the key of child k of a branch with this key."""
    return _hash(_fmix(key), k)


def _root_keys(seed: int, sample_indices):
    """mix(mix(seed), i) for sample index i, or for each of an array of them."""
    if isinstance(sample_indices, np.ndarray):
        sample_indices = sample_indices.astype(np.uint64)
    return _mix(_fmix(seed & _MASK), sample_indices)


def _uniforms(key, counter: int):
    """Draw `counter` of the key as a float in [0, 1) with 53 random bits."""
    bits = _hash(key, counter)
    if isinstance(bits, np.ndarray):
        bits >>= 11
        return bits * 2.0**-53
    return (bits >> 11) * 2.0**-53


def _normal_draws(d: int) -> int:
    """Number of draws that d standard normals take: two per pair."""
    return d + d % 2


def _normals(key, counter: int, d: int) -> list:
    """The d standard normals of the key, from the draws counter,
    counter + 1, ...: Box-Muller on consecutive pairs of uniforms."""
    out = []
    for p in range(0, d, 2):
        radius = np.sqrt(-2.0 * np.log1p(-_uniforms(key, counter + p)))
        angle = (2.0 * np.pi) * _uniforms(key, counter + p + 1)
        out.append(radius * np.cos(angle))
        if p + 1 < d:  # for odd d the last pair's sine is not used
            out.append(radius * np.sin(angle))
    return out


class BranchStream:
    """The draws of one branch, taken in counter order: one at a time, the
    values `TreeBatch` draws for that branch."""

    __slots__ = ("_key", "_counter")

    def __init__(self, key: int):
        self._key = key
        self._counter = 0

    def random(self) -> float:
        u = _uniforms(self._key, self._counter)
        self._counter += 1
        return u

    def standard_normal(self, d: int) -> np.ndarray:
        z = np.array(_normals(self._key, self._counter, d))
        self._counter += _normal_draws(d)
        return z


def branch_rng(seed: int, sample_index: int, label: Label) -> BranchStream:
    """Draw stream of one branch of one sample, keyed by (seed,
    sample_index, label)."""
    key = _root_keys(seed, sample_index)
    for k in label:
        key = _mix(key, k)
    return BranchStream(key)


def _finish(records: list[BranchRecord], T: float) -> TreeSample:
    records.sort(key=lambda r: r.label)
    survived = tuple(r.label for r in records if r.death_time > T)
    died = tuple(r.label for r in records if r.death_time <= T)
    gens: dict[int, int] = {}
    for r in records:
        gens[r.generation] = gens.get(r.generation, 0) + 1
    return TreeSample(
        branches=tuple(records),
        survived_labels=survived,
        died_labels=died,
        generation_counts=gens,
    )


def sample_tree(
    c0: Code,
    t: float,
    x: Sequence[float],
    T: float,
    model: LifetimeModel,
    d: int,
    seed: int,
    sample_index: int = 0,
    caps: Caps = Caps(),
) -> TreeSample:
    """Sample one coded branching diffusion on [t, T] started at (t, x, c0).

    A branch dying at s <= T spawns the children of its sampled offspring
    entry at its death position; a branch alive at T records its terminal
    position.  Per-coordinate displacement variance equals elapsed time.
    """
    if not 0 <= t <= T:
        raise ValueError(f"need 0 <= t <= T, got t={t}, T={T}")
    if len(x) != d:
        raise ValueError(f"start point has dimension {len(x)}, expected {d}")
    records: list[BranchRecord] = []
    stack: list[tuple[Label, Code, float, tuple[float, ...]]] = [
        ((), c0, t, tuple(float(v) for v in x))
    ]
    while stack:
        label, code, birth, pos = stack.pop()
        if len(label) > caps.max_generation:
            raise CapExceeded(f"generation cap {caps.max_generation} exceeded")
        if len(records) >= caps.max_branches:
            raise CapExceeded(f"branch cap {caps.max_branches} exceeded")
        rng = branch_rng(seed, sample_index, label)
        tau = model.inverse_cdf(rng.random())
        death = birth + tau
        if death > T:
            disp = rng.standard_normal(d) * math.sqrt(T - birth)
            records.append(
                BranchRecord(
                    label=label,
                    code=code,
                    birth_time=birth,
                    death_time=death,
                    birth_position=pos,
                    terminal_position=tuple(p + dv for p, dv in zip(pos, disp)),
                    offspring_entry=None,
                )
            )
        else:
            disp = rng.standard_normal(d) * math.sqrt(tau)
            dpos = tuple(p + dv for p, dv in zip(pos, disp))
            entry = sample_offspring(code, d, rng.random())
            records.append(
                BranchRecord(
                    label=label,
                    code=code,
                    birth_time=birth,
                    death_time=death,
                    birth_position=pos,
                    terminal_position=None,
                    offspring_entry=entry,
                )
            )
            for k, child in enumerate(entry.children, start=1):
                stack.append((label + (k,), child, death, dpos))
    return _finish(records, T)


def evaluate_functional(tree: TreeSample, oracle, model: LifetimeModel, T: float) -> float:
    """Path functional: product over survived branches of
    oracle(code)(X_T)/rho_bar(T - birth) times, over died branches, of
    z1/(rho(tau) q(entry))."""
    out = 1.0
    for rec in tree.branches:
        if rec.death_time > T:
            value = oracle(rec.code, rec.terminal_position)
            out *= value / model.survival(T - rec.birth_time)
        else:
            tau = rec.death_time - rec.birth_time
            q = offspring_prob(rec.code, rec.offspring_entry, len(rec.code.alpha))
            out *= float(rec.offspring_entry.weight) / (model.density(tau) * float(q))
    return out


class CodeTable:
    """Codes interned to small ids, each with its offspring set laid out as
    float rows the first time a branch of that code dies.

    Row first[c] + e holds entry e of offspring_set(codes[c], d), in the
    canonical order: its z1/q as a float (`ratio`), its kind (`kind`), its
    number of children (`nchild`) and their code ids (`child`, -1 past the
    last child).  A `dominating` table holds the dominating chain instead:
    the same rows, except that the first child of a kind-i entry is coded
    (alpha-beta+1_i, 0).  The rows come from the closed form of z1/q, which
    does not depend on beta: (d+1) prod(1+alpha_k) for kind 0,
    -(d+1)(2+alpha_i)(3+alpha_i) prod(1+alpha_k)/12 for kind i, and 1 for
    the single entry of a j = -1 code.  Each is an integer or one division of Python ints, both rounded
    correctly, so it equals float(entry.weight / offspring_prob(code, entry,
    d)) of the exact Fraction mechanism, which stays the reference.
    """

    def __init__(self, d: int, dominating: bool = False):
        self.d, self.dominating = d, dominating
        self.codes: list[Code] = []
        self._ids: dict[Code, int] = {}
        self._alpha: list[int] = []  # flat, d per code
        self._j: list[int] = []
        self._first: list[int] = []
        self._ratio: list[float] = []
        self._kind: list[int] = []
        self._child: list[int] = []  # flat, two per row
        self._refresh()

    def intern(self, code: Code) -> int:
        cid = self._ids.get(code)
        if cid is None:
            cid = self._ids[code] = len(self.codes)
            self.codes.append(code)
            self._alpha += code.alpha
            self._j.append(code.j)
            self._first.append(-1)
        return cid

    def build(self, ids: np.ndarray) -> None:
        """Lay out the rows of every code in ids that has none yet."""
        if self.first.size < len(self.codes):  # interned outside build: the root
            self._refresh()
        present = np.zeros(self.first.size, dtype=bool)
        present[ids] = True
        fresh = np.flatnonzero(present & (self.first < 0))
        if not fresh.size:
            return
        for cid in fresh.tolist():
            self._lay_out(cid)
        self._refresh()

    def _lay_out(self, cid: int) -> None:
        """Append the rows of code cid, in offspring_set's order."""
        alpha, j = self.codes[cid]
        d = self.d
        self._first[cid] = len(self._ratio)
        if j < 0:
            self._add_row(1.0, 0, Code(alpha, 0))
            return
        prod = index_product(alpha)
        betas = mi_enumerate_below(alpha)
        rests = [tuple(a - b for a, b in zip(alpha, beta)) for beta in betas]
        ratio = float((d + 1) * prod)
        for beta, rest in zip(betas, rests):
            self._add_row(ratio, 0, Code(rest, 0), Code(beta, j + 1))
        first_j = 0 if self.dominating else -1
        for i in range(d):
            ratio = -(d + 1) * (2 + alpha[i]) * (3 + alpha[i]) * prod / 12
            for beta, rest in zip(betas, rests):
                self._add_row(
                    ratio,
                    i + 1,
                    Code(rest[:i] + (rest[i] + 1,) + rest[i + 1:], first_j),
                    Code(beta[:i] + (beta[i] + 1,) + beta[i + 1:], j + 1),
                )

    def _add_row(self, ratio: float, kind: int, first: Code, second: Optional[Code] = None) -> None:
        self._ratio.append(ratio)
        self._kind.append(kind)
        self._child += (self.intern(first), -1 if second is None else self.intern(second))

    def _refresh(self) -> None:
        self.alpha = np.array(self._alpha, dtype=np.int64).reshape(-1, self.d)
        self.j = np.array(self._j, dtype=np.int64)
        self.first = np.array(self._first, dtype=np.int64)
        self.ratio = np.array(self._ratio, dtype=float)
        self.kind = np.array(self._kind, dtype=np.int64)
        self.child = np.array(self._child, dtype=np.int64).reshape(-1, 2)
        self.nchild = np.count_nonzero(self.child >= 0, axis=1)

    def sample_entries(self, ids: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Index in its code's offspring set of the entry that each uniform
        picks, as `sample_offspring` picks it; the codes must be built."""
        return np.where(self.j[ids] < 0, 0, sample_offspring_indices(self.alpha[ids], self.d, u))


FRONTIER_BUDGET = 1 << 18  # branch rows a batch holds at once


class FrontierFull(RuntimeError):
    """A generation of a batch of more than one tree passed FRONTIER_BUDGET
    branches; sample its halves apart."""


class Generation(NamedTuple):
    """One generation of a `TreeBatch`, one row per branch; the rows of a
    tree are in label order."""

    sample: np.ndarray    # offset of the branch's tree in the batch
    parent: np.ndarray    # row of the parent in the previous generation, -1 at the root
    child: np.ndarray     # k, the last entry of the label (0 at the root)
    code: np.ndarray      # id in the batch's CodeTable
    birth: np.ndarray
    tau: np.ndarray       # lifetime; the branch died iff birth + tau <= T
    died: np.ndarray
    position: np.ndarray  # (rows, d): terminal position if survived, else death position
    entry: np.ndarray     # index of the sampled entry in offspring_set(code) if died, else -1


class TreeBatch:
    """The trees of the samples in `indices`, all started at (t, x, c0) and
    grown together one generation at a time: iterating yields each
    `Generation` in turn.

    Row for row, a generation holds what `sample_tree` records for the same
    branches, from the same draws.  Caps apply per tree with sample_tree's
    predicate: a tree is capped once it has more than caps.max_branches
    branches or a branch of generation above caps.max_generation, and it
    stops growing at once.  Once iterated, `capped`, `branches` (branches
    per tree) and `depth` (largest generation per tree) hold per-tree
    results; for a capped tree the last two count what grew before the cap.
    A batch of more than one tree raises FrontierFull when a generation has
    more than FRONTIER_BUDGET branches, which bounds its memory: no tree
    depends on which others share its batch, so the caller samples the
    halves apart (`evaluate_in_parts`).  With dominating=True the batch
    grows the dominating chain from the same draws (see `CodeTable`).
    """

    def __init__(
        self,
        c0: Code,
        t: float,
        x: Sequence[float],
        T: float,
        model: LifetimeModel,
        d: int,
        seed: int,
        indices: range,
        caps: Caps = Caps(),
        dominating: bool = False,
    ):
        if not 0 <= t <= T:
            raise ValueError(f"need 0 <= t <= T, got t={t}, T={T}")
        if len(x) != d:
            raise ValueError(f"start point has dimension {len(x)}, expected {d}")
        if dominating and c0.j < 0:
            raise ValueError("dominating chain codes have j >= 0")
        self.c0, self.t, self.x, self.T = c0, float(t), np.asarray(x, dtype=float), T
        self.model, self.d, self.seed, self.indices, self.caps = model, d, seed, indices, caps
        self.codes = CodeTable(d, dominating)
        n = len(indices)
        self.branches = np.ones(n, dtype=np.int64)
        self.depth = np.zeros(n, dtype=np.int64)
        self.capped = np.full(n, caps.max_branches < 1 or caps.max_generation < 0)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[Generation]:
        T, d, model, codes, caps = self.T, self.d, self.model, self.codes, self.caps
        sample = np.flatnonzero(~self.capped)
        indices = np.arange(self.indices.start, self.indices.stop, self.indices.step)
        key = _root_keys(self.seed, indices[sample])
        parent = np.full(sample.size, -1)
        child = np.zeros(sample.size, dtype=np.int64)
        code = np.full(sample.size, codes.intern(self.c0))
        birth = np.full(sample.size, self.t)
        pos = np.tile(self.x, (sample.size, 1))
        generation = 0
        while sample.size:
            if sample.size > FRONTIER_BUDGET and len(self) > 1:
                raise FrontierFull(f"a generation of {len(self)} trees passed {FRONTIER_BUDGET} branches")
            tau = model.inverse_cdf(_uniforms(key, 0))
            death = birth + tau
            died = death <= T
            scale = np.sqrt(np.where(died, tau, T - birth))
            position = pos + np.stack(_normals(key, 1, d), axis=1) * scale[:, None]
            dead = np.flatnonzero(died)
            dead_code = code[dead]
            codes.build(dead_code)
            dead_entry = codes.sample_entries(dead_code, _uniforms(key[dead], 1 + _normal_draws(d)))
            entry = np.full(sample.size, -1)
            entry[dead] = dead_entry
            yield Generation(sample, parent, child, code, birth, tau, died, position, entry)

            rows = codes.first[dead_code] + dead_entry
            nchild = codes.nchild[rows]
            parent = np.repeat(dead, nchild)
            child = np.arange(1, parent.size + 1) - np.repeat(np.cumsum(nchild) - nchild, nchild)
            code = codes.child[np.repeat(rows, nchild), child - 1]
            sample = sample[parent]
            generation += 1
            np.add.at(self.branches, sample, 1)
            self.depth[sample] = generation
            # the rows of a tree that passes a cap here all go; trees capped
            # earlier have no rows left
            over = self.branches[sample] > caps.max_branches
            if generation > caps.max_generation:
                over[:] = True
            if over.any():
                self.capped[sample[over]] = True
                keep = np.flatnonzero(~over)
                parent, child, code, sample = parent[keep], child[keep], code[keep], sample[keep]
            key = _mix(key[parent], child.astype(np.uint64))
            birth = death[parent]
            pos = position[parent]


def evaluate_in_parts(
    make_batch: Callable[[range], TreeBatch],
    evaluate: Callable[[TreeBatch], np.ndarray],
    indices: range,
) -> list[tuple[TreeBatch, np.ndarray]]:
    """evaluate(make_batch(indices)), or the same on its two halves (and so
    on) when the batch outgrows the frontier budget: (batch, values) per
    part, in index order."""
    parts, pending = [], [indices]
    while pending:
        r = pending.pop()
        batch = make_batch(r)
        try:
            values = evaluate(batch)
        except FrontierFull:
            mid = r.start + len(r) // 2
            pending += [range(mid, r.stop), range(r.start, mid)]
            continue
        parts.append((batch, values))
    return parts


def evaluate_batch(batch: TreeBatch, oracle, model: LifetimeModel, T: float) -> np.ndarray:
    """Path functional of every tree of a batch, NaN where capped, from
    evaluate_functional's factors: (z1/q)/rho(tau) over died branches, z1/q
    read from the code table, and oracle(code)(X_T)/rho_bar(T - birth) over
    survived ones.  Survivors are held and evaluated together, calling the
    oracle once per code on all their terminal positions, until they pass
    FRONTIER_BUDGET rows.  Each tree multiplies its died factors and its
    survived factors apart, each in generation and then label order, so its
    value does not depend on the other trees of the batch."""
    died = np.ones(len(batch))
    survived = np.ones(len(batch))
    held: list[tuple[np.ndarray, ...]] = []
    for gen in batch:
        dead = np.flatnonzero(gen.died)
        alive = np.flatnonzero(~gen.died)
        rows = batch.codes.first[gen.code[dead]] + gen.entry[dead]
        np.multiply.at(died, gen.sample[dead], batch.codes.ratio[rows] / model.density(gen.tau[dead]))
        held.append((gen.sample[alive], gen.code[alive], gen.birth[alive], gen.position[alive]))
        if sum(part[0].size for part in held) > FRONTIER_BUDGET:
            _multiply_survivors(survived, held, batch.codes, oracle, model, T)
    _multiply_survivors(survived, held, batch.codes, oracle, model, T)
    values = died * survived
    values[batch.capped] = np.nan
    return values


def _multiply_survivors(product, held, codes: CodeTable, oracle, model, T) -> None:
    """Multiply the held survivors' factors into their trees' products, in
    held order, and empty `held`."""
    if not held:
        return
    sample, code, birth, position = (np.concatenate(part) for part in zip(*held))
    held.clear()
    value = np.empty(sample.size)
    # a stable sort of small unsigned ints is a radix sort
    order = np.argsort(code.astype(np.min_scalar_type(len(codes.codes))), kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(code[order])) + 1):
        if group.size:
            value[group] = oracle(codes.codes[code[group[0]]], position[group])
    np.multiply.at(product, sample, value / model.survival(T - birth))


def weighted_progeny_batch(batch: TreeBatch, w: WeightSpec) -> np.ndarray:
    """Multiplicative weighted progeny of every tree of a batch, NaN where
    capped: sigma_inner(alpha, j, kind) over died branches times
    sigma_boundary(alpha, j) over survived ones, kappa sigma_boundary on the
    dominating chain.  Each weight is evaluated once per code and kind (died)
    or per code (survived), and each tree multiplies its factors in
    generation and then label order, so its value does not depend on the
    other trees of the batch."""
    codes, slots = batch.codes, batch.d + 2  # per code: survived, then died by kind
    boundary = w.boundary_dominating if codes.dominating else w.sigma_boundary
    weights: dict[int, float] = {}
    product = np.ones(len(batch))
    for gen in batch:
        key = gen.code * slots
        dead = np.flatnonzero(gen.died)
        key[dead] += 1 + codes.kind[codes.first[gen.code[dead]] + gen.entry[dead]]
        keys, inverse = np.unique(key, return_inverse=True)
        for k in keys.tolist():
            if k not in weights:
                cid, slot = divmod(k, slots)
                alpha, j = codes.codes[cid]
                weights[k] = float(boundary(alpha, j) if slot == 0 else w.sigma_inner(alpha, j, slot - 1))
        factor = np.array([weights[k] for k in keys.tolist()])[inverse]
        np.multiply.at(product, gen.sample, factor)
    product[batch.capped] = np.nan
    return product


def weighted_progeny(tree: TreeSample, w: WeightSpec) -> float:
    """Multiplicative progeny of an original tree: prod of inner weights over
    died branches times boundary weights over survived branches."""
    out = 1.0
    for rec in tree.branches:
        alpha, j = rec.code
        if rec.offspring_entry is None:
            out *= float(w.sigma_boundary(alpha, j))
        else:
            out *= float(w.sigma_inner(alpha, j, rec.offspring_entry.kind))
    return out

