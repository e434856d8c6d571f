"""Sampling of the coded branching diffusion and of its binary dominating
chain; evaluation of the path functional and of multiplicative weighted
progenies.

Reproducibility contract: every random draw is a counter-based hash, in the
manner of Salmon et al., "Parallel random numbers: as easy as 1, 2, 3"
(SC'11).  Each branch has a 64-bit key derived from (seed, sample_index,
label): the root's key is mix(mix(seed), sample_index), and child k of a
branch with key K has key mix(K, k).  Draw c of a branch is hash(K, c), the
(c+1)-th output of a splitmix64 stream started at K (Steele, Lea & Flood,
OOPSLA 2014), read as a uniform in [0, 1) with 53 random bits.  A tree is
therefore a pure function of (seed, sample_index, label), whatever the
order, batch or worker in which its branches are drawn.  The per-branch
draw order is fixed by counter: the lifetime uniform is draw 0, the d
displacement normals (Box-Muller on the consecutive pairs of draws 1, 2,
..., one pair per two normals) follow, and the offspring uniform comes
right after them.  The key helpers (_fmix, _hash, _mix, _root_keys,
_uniforms) take keys as 1-d uint64 arrays, which wrap mod 2^64 on their
own; one branch is an array of one key.

Two samplers share these draws.  `sample_tree` grows one tree of the
original chain branch by branch, reading each branch's draws from its
`branch_rng` key, as an array of one key, at the counters above, and
records every branch, with the horizon and lifetime model it was grown
under; `evaluate_functional` (with the exact Fraction mechanism) and
`weighted_progeny` multiply its factors.  They are the reference that the
tests use.  `TreeBatch` grows the trees of a range of sample indices
together, one generation at a time, as arrays, and `evaluate_batch` and
`weighted_progeny_batch` compute their path functionals and weighted
progenies.  A generation carries each branch's code as data, an (n, d)
`alpha` column and a `j` column: `mechanism.draw_entries` draws the
offspring entry of each death and its z1/q from those columns,
`mechanism.spawn` forms the children's codes, and `_row_groups` groups
rows by code at any d.  The batch keeps no state between batches: a tree's
value depends on its (seed, sample_index) alone.

The batch grows either chain with one draw layout.  The dominating chain
differs in one decision, which `mechanism.spawn` makes: the first child of
a directional entry is (alpha-beta+1_i, 0), not (alpha-beta+1_i, -1), so
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
    offspring_prob,
    draw_entries,
    sample_offspring,
    spawn,
)

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
    T: float                # the horizon the tree was grown to
    model: LifetimeModel    # the lifetime law it was grown under

    def __len__(self) -> int:
        return len(self.branches)


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's stream increment


def _fmix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function; the uint64 array z is left as it was."""
    shifted = z >> 30  # one scratch array for the three shifts
    z = z ^ shifted  # a new array, worked on in place from here
    z *= 0xBF58476D1CE4E5B9
    z ^= np.right_shift(z, 27, out=shifted)
    z *= 0x94D049BB133111EB
    z ^= np.right_shift(z, 31, out=shifted)
    return z


def _hash(key: np.ndarray, counter) -> np.ndarray:
    """hash(key, counter): output counter + 1 of a splitmix64 stream started
    at each key, for an int counter or a uint64 counter array broadcast
    against the keys; the step (counter + 1) gamma mod 2^64 is made in place."""
    step = counter + 1
    step *= _GAMMA
    step &= _MASK
    return _fmix(key + step)


def _mix(key: np.ndarray, k) -> np.ndarray:
    """mix(key, k): the key of child k of a branch with this key."""
    return _hash(_fmix(key), k)


def _root_keys(seed: int, sample_indices) -> np.ndarray:
    """mix(mix(seed), i) for each sample index i, read mod 2^64 as the seed
    is, as a 1-d uint64 array: an int index gives an array of one key."""
    indices = np.asarray(sample_indices).astype(np.uint64).reshape(-1)
    return _mix(_fmix(np.array([seed & _MASK], dtype=np.uint64)), indices)


def _uniforms(key: np.ndarray, counter: int) -> np.ndarray:
    """Draw `counter` of each key as a float in [0, 1) with 53 random bits."""
    bits = _hash(key, counter)
    bits >>= 11
    return bits * 2.0**-53


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


def branch_rng(seed: int, sample_index: int, label: Label) -> int:
    """The 64-bit key of one branch of one sample, from (seed,
    sample_index, label), as a Python int.  Draw c of the branch is element
    0 of _uniforms(np.array([key], dtype=np.uint64), c), the draw
    `TreeBatch` reads from its row of the key array."""
    key = _root_keys(seed, sample_index)
    for k in label:
        key = _mix(key, k)
    return int(key[0])


def _finish(records: list[BranchRecord], T: float, model: LifetimeModel) -> TreeSample:
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
        T=T,
        model=model,
    )


def _start_dimension(c0: Code, t: float, x: Sequence[float], T: float) -> int:
    """d = len(c0.alpha) of a tree started at (t, x, c0) and grown to T.  A t
    outside [0, T], an empty alpha, an alpha entry that is not an int >= 0,
    a j that is not an int >= -1, or an x of another length raises
    ValueError."""
    if not 0 <= t <= T:
        raise ValueError(f"need 0 <= t <= T, got t={t}, T={T}")
    (alpha, j), d = c0, len(c0.alpha)
    if not d or any(type(v) is not int or v < 0 for v in alpha) or type(j) is not int or j < -1:
        raise ValueError(f"a code needs a nonempty alpha of ints >= 0 and an int j >= -1, got {c0}")
    if len(x) != d:
        raise ValueError(f"start point has dimension {len(x)}, the code {c0} has {d}")
    return d


def sample_tree(
    c0: Code,
    t: float,
    x: Sequence[float],
    T: float,
    model: LifetimeModel,
    seed: int,
    sample_index: int = 0,
    caps: Caps = Caps(),
) -> TreeSample:
    """Sample one coded branching diffusion on [t, T] started at (t, x, c0),
    in d = len(c0.alpha) dimensions, with TreeBatch's start checks.

    A branch dying at s <= T spawns the children of its sampled offspring
    entry at its death position; a branch alive at T records its terminal
    position.  Per-coordinate displacement variance equals elapsed time.
    """
    d = _start_dimension(c0, t, x, T)
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
        # element 0 of the draws at TreeBatch's counters: lifetime, normals, offspring
        key = np.array([branch_rng(seed, sample_index, label)], dtype=np.uint64)
        tau = model.inverse_cdf(_uniforms(key, 0)[0])
        death = birth + tau
        normals = np.array([z[0] for z in _normals(key, 1, d)])
        died = death <= T
        end = tuple(p + dv for p, dv in zip(pos, normals * math.sqrt(tau if died else T - birth)))
        entry = sample_offspring(code, _uniforms(key, 1 + _normal_draws(d))[0]) if died else None
        records.append(
            BranchRecord(
                label=label,
                code=code,
                birth_time=birth,
                death_time=death,
                birth_position=pos,
                terminal_position=None if died else end,
                offspring_entry=entry,
            )
        )
        if died:
            stack.extend((label + (k,), child, death, end) for k, child in enumerate(entry.children, start=1))
    return _finish(records, T, model)


def evaluate_functional(tree: TreeSample, oracle) -> float:
    """Path functional at the tree's horizon T and lifetime model: product
    over survived branches of oracle(code)(X_T)/rho_bar(T - birth) times,
    over died branches, of z1/(rho(tau) q(entry))."""
    T, model = tree.T, tree.model
    out = 1.0
    for rec in tree.branches:
        if rec.death_time > T:
            value = oracle(rec.code, rec.terminal_position)
            out *= value / model.survival(T - rec.birth_time)
        else:
            tau = rec.death_time - rec.birth_time
            q = offspring_prob(rec.code, rec.offspring_entry)
            out *= float(rec.offspring_entry.weight) / (model.density(tau) * float(q))
    return out


# Branch rows a generation of a batch may hold.  At d = 1 a row costs about
# 90 traced bytes at the sampler's peak (its Generation columns, key, death
# time and draw temporaries) and about 125 with the survivors evaluate_batch
# holds, so the budget bounds a batch at about 33 MB.
FRONTIER_BUDGET = 1 << 18


class FrontierFull(RuntimeError):
    """A generation of a batch of more than one tree passed FRONTIER_BUDGET
    branches; sample its halves apart."""


class Generation(NamedTuple):
    """One generation of a `TreeBatch`, one row per branch, but for the
    entry columns, which have one row per died branch, in row order; the
    rows of a tree are in label order.

    The batch frees a generation's arrays once it draws the next, so a
    consumer must not keep a Generation past its step: drop it, and any
    array of it, before asking for the next one.  At the root, `parent`,
    `child`, `alpha`, `j` and `birth` hold one value each, as read-only
    views."""

    sample: np.ndarray    # offset of the branch's tree in the batch
    parent: np.ndarray    # row of the parent in the previous generation, -1 at the root
    child: np.ndarray     # k, the last entry of the label (0 at the root)
    alpha: np.ndarray     # (rows, d): the alpha of the branch's code
    j: np.ndarray         # the j of the branch's code
    birth: np.ndarray
    tau: np.ndarray       # lifetime; the branch died iff birth + tau <= T
    died: np.ndarray
    position: np.ndarray  # (rows, d): terminal position if survived, else death position
    kind: np.ndarray      # per died branch: the kind of its offspring entry
    beta: np.ndarray      # (died, d): the beta of its offspring entry
    ratio: np.ndarray     # per died branch: the z1/q of its offspring entry


class TreeBatch:
    """The trees of the samples in `indices`, all started at (t, x, c0) and
    grown together one generation at a time: iterating yields each
    `Generation` in turn.  d is len(c0.alpha), and a bad start raises
    ValueError as in `sample_tree` (`_start_dimension`).

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
    grows the dominating chain from the same draws (see `mechanism.spawn`).

    Lifetime contract: while it grows generation g + 1 the batch holds
    nothing of generation g but the parent rows it reads, so a consumer that
    drops each `Generation` after its step holds one generation at a time,
    plus whatever it keeps of its own (the survivors `evaluate_batch`
    holds).  The root's constant columns are read-only views.
    """

    def __init__(
        self,
        c0: Code,
        t: float,
        x: Sequence[float],
        T: float,
        model: LifetimeModel,
        seed: int,
        indices: range,
        caps: Caps = Caps(),
        dominating: bool = False,
    ):
        d = _start_dimension(c0, t, x, T)
        if dominating and c0.j < 0:
            raise ValueError("dominating chain codes have j >= 0")
        self.c0, self.t, self.x, self.T = c0, float(t), np.asarray(x, dtype=float), T
        self.model, self.d, self.seed, self.indices, self.caps = model, d, seed, indices, caps
        self.dominating = dominating
        n = len(indices)
        self.branches = np.ones(n, dtype=np.int64)
        self.depth = np.zeros(n, dtype=np.int64)
        self.capped = np.full(n, caps.max_branches < 1 or caps.max_generation < 0)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[Generation]:
        T, d, model, caps = self.T, self.d, self.model, self.caps
        sample = np.flatnonzero(~self.capped)
        key = _root_keys(self.seed, self.indices.start + self.indices.step * sample)
        # the root's constant columns are read-only views of one value each
        parent = np.broadcast_to(np.int64(-1), sample.shape)
        child = np.broadcast_to(np.int64(0), sample.shape)
        alpha = np.broadcast_to(np.array(self.c0.alpha, dtype=np.int64), (sample.size, d))
        j = np.broadcast_to(np.int64(self.c0.j), sample.shape)
        birth = np.broadcast_to(np.float64(self.t), sample.shape)
        pos = np.broadcast_to(self.x, (sample.size, d))
        generation = 0
        while sample.size:
            if sample.size > FRONTIER_BUDGET and len(self) > 1:
                raise FrontierFull(f"a generation of {len(self)} trees passed {FRONTIER_BUDGET} branches")
            tau = model.inverse_cdf(_uniforms(key, 0))
            death = birth + tau
            died = death <= T
            scale = np.sqrt(np.where(died, tau, T - birth))
            position = pos + np.stack(_normals(key, 1, d), axis=1) * scale[:, None]
            del scale
            dead = np.flatnonzero(died)
            dead_alpha, dead_j = alpha[dead], j[dead]
            kind, beta, ratio = draw_entries(dead_alpha, dead_j, _uniforms(key[dead], 1 + _normal_draws(d)))
            yield Generation(sample, parent, child, alpha, j, birth, tau, died, position, kind, beta, ratio)
            # from here on hold only what the next generation reads
            del tau, died, birth, pos, parent, child, alpha, j, ratio
            parent, child, alpha, j = spawn(dead_alpha, dead_j, kind, beta, self.dominating)
            parent = dead[parent]
            del kind, beta, dead_alpha, dead_j
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
                parent, child, alpha, j, sample = parent[keep], child[keep], alpha[keep], j[keep], sample[keep]
            key = _mix(key[parent], child.astype(np.uint64))
            birth = death[parent]
            pos = position[parent]
            del death, position, dead


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


def evaluate_batch(batch: TreeBatch, oracle) -> np.ndarray:
    """Path functional of every tree of a batch, NaN where capped, from
    evaluate_functional's factors at the batch's model and horizon T:
    (z1/q)/rho(tau) over died branches, z1/q read from `Generation.ratio`,
    and oracle(code)(X_T)/rho_bar(T - birth) over survived ones.  Survivors
    are held and evaluated together, calling the oracle once per code on
    all their terminal positions, until they pass FRONTIER_BUDGET rows.
    Each tree multiplies its died factors and its survived factors apart,
    each in generation and then label order, so its value does not depend
    on the other trees of the batch.

    It holds one generation of the batch at a time, plus the held
    survivors: each `Generation`, and the row indices taken from it, is
    dropped before the next is drawn.  It only reads a generation's columns,
    which at the root are read-only views."""
    died = np.ones(len(batch))
    survived = np.ones(len(batch))
    held: list[tuple[np.ndarray, ...]] = []
    for gen in batch:
        dead = np.flatnonzero(gen.died)
        alive = np.flatnonzero(~gen.died)
        factor = gen.ratio / batch.model.density(gen.tau[dead])
        np.multiply.at(died, gen.sample[dead], factor)
        held.append((gen.sample[alive], gen.alpha[alive], gen.j[alive], gen.birth[alive], gen.position[alive]))
        del gen, dead, alive, factor  # let the batch free this generation
        if sum(part[0].size for part in held) > FRONTIER_BUDGET:
            _multiply_survivors(survived, held, batch, oracle)
    _multiply_survivors(survived, held, batch, oracle)
    values = died * survived
    values[batch.capped] = np.nan
    return values


def _multiply_survivors(product, held, batch: TreeBatch, oracle) -> None:
    """Multiply the held survivors' factors into their trees' products, in
    held order, and empty `held`."""
    if not held:
        return
    columns = held[0] if len(held) == 1 else [np.concatenate(part) for part in zip(*held)]
    sample, alpha, j, birth, position = columns
    held.clear()
    value = np.empty(sample.size)
    for group in _row_groups(j + 1, alpha):
        value[group] = oracle(_code(alpha, j, group[0]), position[group])
    np.multiply.at(product, sample, value / batch.model.survival(batch.T - birth))


def _code(alpha: np.ndarray, j: np.ndarray, row) -> Code:
    """The code of a row of the code columns alpha and j."""
    return Code(tuple(alpha[row].tolist()), int(j[row]))


# a packed row key at or above this could wrap an int64
_PACK_LIMIT = 1 << 62


def _row_groups(*columns: np.ndarray) -> list[np.ndarray]:
    """The rows of these columns of ints >= 0 (1-d, or 2-d for several)
    grouped by equal rows: one ascending array of row indices per distinct
    row.  A row's key packs its digits as a mixed radix; where the next
    digit would take the keys to _PACK_LIMIT, they are first replaced by
    their ranks among the distinct keys.  Below the limit a key is the
    packed row, in the smallest unsigned type that holds it (a stable
    argsort of 8 or 16 bits is a radix sort); past it the groups are the
    same, in another order."""
    columns = [c if c.ndim == 2 else c[:, None] for c in columns]
    spans = [top + 1 for c in columns for top in c.max(axis=0, initial=0).tolist()]
    key, size = np.zeros(len(columns[0]), dtype=np.int64), 1  # every key is below size
    for digit, span in zip((c[:, k] for c in columns for k in range(c.shape[1])), spans):
        if size * span >= _PACK_LIMIT:
            distinct, key = np.unique(key, return_inverse=True)
            size = distinct.size
        key *= span
        key += digit
        size *= span
    key = key.astype(np.min_scalar_type(size - 1))
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if key.size else []


def weighted_progeny_batch(batch: TreeBatch, w) -> np.ndarray:
    """Multiplicative weighted progeny of every tree of a batch, NaN where
    capped: w.sigma_inner(alpha, j, kind) over died branches times
    w.sigma_boundary(alpha, j) over survived ones, or on the dominating chain
    w.boundary_dominating(alpha, j), which is w.kappa sigma_boundary (a
    stability.PresetWeights has these members).  Each weight is evaluated
    once per code and kind (died) or per code (survived), and each tree
    multiplies its factors in generation and then label order, so its value
    does not depend on the other trees of the batch."""
    boundary = w.boundary_dominating if batch.dominating else w.sigma_boundary
    weights: dict[tuple[Code, int], float] = {}  # per (code, slot): survived, then died by kind
    product = np.ones(len(batch))
    for gen in batch:
        slot = np.zeros(gen.died.size, dtype=np.int64)
        slot[gen.died] = 1 + gen.kind
        factor = np.empty(slot.size)
        for group in _row_groups(gen.j + 1, gen.alpha, slot):
            code, s = _code(gen.alpha, gen.j, group[0]), int(slot[group[0]])
            if (code, s) not in weights:
                weights[code, s] = float(boundary(*code) if s == 0 else w.sigma_inner(*code, s - 1))
            factor[group] = weights[code, s]
        np.multiply.at(product, gen.sample, factor)
        del gen, slot, factor  # let the batch free this generation
    product[batch.capped] = np.nan
    return product


def weighted_progeny(tree: TreeSample, w) -> float:
    """Multiplicative progeny of an original tree: prod of the inner weights
    w.sigma_inner(alpha, j, kind) over died branches times the boundary
    weights w.sigma_boundary(alpha, j) over survived branches."""
    out = 1.0
    for rec in tree.branches:
        alpha, j = rec.code
        if rec.offspring_entry is None:
            out *= float(w.sigma_boundary(alpha, j))
        else:
            out *= float(w.sigma_inner(alpha, j, rec.offspring_entry.kind))
    return out

