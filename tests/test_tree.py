import math
from fractions import Fraction

import numpy as np
import pytest

from branchpde.lifetimes import exponential_model
from branchpde.mechanism import (
    Code,
    offspring_prob,
    offspring_set,
    sample_offspring,
)
from branchpde.estimator import CodeOracle, ProblemSetup, _sample_values
from branchpde import progeny, stability
from branchpde.tree import (
    BranchRecord,
    CapExceeded,
    Caps,
    TreeBatch,
    TreeSample,
    WeightSpec,
    branch_rng,
    evaluate_functional,
    evaluate_in_parts,
    sample_tree,
    weighted_progeny,
    weighted_progeny_batch,
)
from oracles import dominating_offspring_set

MODEL = exponential_model(1.0)


def test_root_survival_single_branch():
    # find a sample whose root outlives the horizon
    T = 0.05
    for i in range(50):
        tree = sample_tree(Code((0,), -1), 0.0, (0.3,), T, MODEL, 1, seed=1, sample_index=i)
        if len(tree) == 1:
            rec = tree.branches[0]
            assert rec.death_time > T
            assert rec.terminal_position is not None
            assert tree.survived_labels == ((),)
            return
    pytest.fail("no surviving root found in 50 samples")


def test_pure_derivative_death_spawns_single_child():
    # horizon of two mean lifetimes makes root deaths common; the unique
    # child of (alpha,-1) is (alpha,0)
    T = 2.0
    for i in range(200):
        tree = sample_tree(
            Code((2,), -1), 0.0, (0.0,), T, MODEL, 1, seed=5, sample_index=i,
            caps=Caps(max_branches=100_000, max_generation=500),
        )
        root = tree.branches[0] if tree.branches[0].label == () else None
        assert root is not None
        if root.death_time <= T:
            children = [r for r in tree.branches if len(r.label) == 1]
            assert len(children) == 1
            assert children[0].code == Code((2,), 0)
            assert children[0].birth_time == root.death_time
            assert children[0].birth_position == root_position_at_death(tree)
            return
    pytest.fail("root never died")


def root_position_at_death(tree):
    child = next(r for r in tree.branches if len(r.label) == 1)
    return child.birth_position


def test_composition_codes_spawn_two_children():
    T = 3.0
    seen_split = False
    for i in range(100):
        tree = sample_tree(
            Code((1,), 0), 0.0, (0.0,), T, MODEL, 1, seed=9, sample_index=i,
            caps=Caps(max_branches=100_000, max_generation=400),
        )
        for rec in tree.branches:
            if rec.offspring_entry is not None and rec.code.j >= 0:
                labels = {r.label for r in tree.branches}
                assert rec.label + (1,) in labels and rec.label + (2,) in labels
                seen_split = True
    assert seen_split


def test_reproducibility_bit_identical():
    a = sample_tree(Code((1,), 0), 0.0, (0.5,), 1.0, MODEL, 1, seed=42, sample_index=7)
    b = sample_tree(Code((1,), 0), 0.0, (0.5,), 1.0, MODEL, 1, seed=42, sample_index=7)
    assert a == b
    c = sample_tree(Code((1,), 0), 0.0, (0.5,), 1.0, MODEL, 1, seed=43, sample_index=7)
    assert a != c


def test_branch_rng_streams_are_independent_of_sampling_order():
    g1 = branch_rng(10, 3, (1, 2))
    g2 = branch_rng(10, 3, (1, 2))
    assert g1.random() == g2.random()
    assert branch_rng(10, 3, (1,)).random() != branch_rng(10, 3, (2,)).random()


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        # supercritical: horizon much longer than mean lifetime, tiny cap
        for i in range(50):
            sample_tree(
                Code((0,), 0), 0.0, (0.0,), 50.0, MODEL, 1, seed=3, sample_index=i,
                caps=Caps(max_branches=16, max_generation=200),
            )


def test_functional_single_survivor():
    # single survived root coded Id with phi = 1: H = 1/survival(T - t)
    T = 0.2
    oracle = CodeOracle(lambda code, x: 1.0 if code == Code((0,), -1) else 0.0)
    for i in range(50):
        tree = sample_tree(Code((0,), -1), 0.0, (0.0,), T, MODEL, 1, seed=8, sample_index=i)
        if len(tree) == 1:
            h = evaluate_functional(tree, oracle, MODEL, T)
            assert h == pytest.approx(1.0 / MODEL.survival(T))
            return
    pytest.fail("no surviving root found")


def test_functional_depth_one_unroll():
    # hand-built depth-1 tree: root (j=0) dies at s, both children survive
    d = 1
    c0 = Code((0,), 0)
    entries = offspring_set(c0, d)
    entry = entries[0]  # kind 0: children (0,0) and (0,1), weight 1
    s, T = 0.3, 0.5
    root = BranchRecord((), c0, 0.0, s, (0.0,), None, entry)
    ch1 = BranchRecord((1,), entry.children[0], s, T + 1.0, (0.1,), (0.2,), None)
    ch2 = BranchRecord((2,), entry.children[1], s, T + 2.0, (0.1,), (-0.3,), None)
    tree = TreeSample(
        branches=(root, ch1, ch2),
        survived_labels=((1,), (2,)),
        died_labels=((),),
        generation_counts={0: 1, 1: 2},
    )
    values = {(Code((0,), 0), (0.2,)): 1.7, (Code((0,), 1), (-0.3,)): -0.4}
    oracle = CodeOracle(lambda code, x: values[(code, tuple(x))])
    q = float(offspring_prob(c0, entry, d))
    expected = (
        float(entry.weight)
        / (MODEL.density(s) * q)
        * 1.7
        / MODEL.survival(T - s)
        * (-0.4)
        / MODEL.survival(T - s)
    )
    assert evaluate_functional(tree, oracle, MODEL, T) == pytest.approx(expected)


def test_functional_mean_is_one_for_zero_nonlinearity():
    # f = 0, phi = 1: the solution is constant 1
    def oracle_fn(code, x):
        if code.j >= 0:
            return 0.0
        return 1.0 if sum(code.alpha) == 0 else 0.0

    oracle = CodeOracle(oracle_fn)
    T, n = 0.3, 4000
    total = 0.0
    sq = 0.0
    for i in range(n):
        tree = sample_tree(Code((0,), -1), 0.0, (0.0,), T, MODEL, 1, seed=21, sample_index=i)
        h = evaluate_functional(tree, oracle, MODEL, T)
        total += h
        sq += h * h
    mean = total / n
    se = math.sqrt((sq / n - mean * mean) / n)
    assert abs(mean - 1.0) <= 3.0 * se


def unit_weights():
    return WeightSpec(
        sigma_boundary=lambda a, j: 1.0, sigma_inner=lambda a, j, k: 1.0, kappa=1.0
    )


def batch_progeny(c0, T, model, d, seed, n, w=None, dominating=True):
    """Branch counts and weighted progenies (unit weights by default) of the
    trees of samples 0..n-1, grown from 0 in R^d on the batched sampler."""
    w = w or unit_weights()
    parts = evaluate_in_parts(
        lambda r: TreeBatch(c0, 0.0, (0.0,) * d, T, model, d, seed, r, dominating=dominating),
        lambda batch: weighted_progeny_batch(batch, w),
        range(n),
    )
    return (
        np.concatenate([batch.branches for batch, _ in parts]),
        np.concatenate([values for _, values in parts]),
    )


def test_dominating_tree_progeny_odd_and_survival():
    lam, T = 1.0, 0.7
    n = 4000
    sizes, _ = batch_progeny(Code((1,), 0), T, exponential_model(lam), 1, 11, n)
    assert np.all(sizes % 2 == 1)
    survived_roots = np.count_nonzero(sizes == 1)
    p = math.exp(-lam * T)
    se = math.sqrt(p * (1 - p) / n)
    assert abs(survived_roots / n - p) <= 4.0 * se


def test_total_progeny_small_trees():
    # no branching -> 1; one branching -> 3 (binary chain)
    sizes, _ = batch_progeny(Code((0,), 0), 0.5, exponential_model(1.0), 1, 2, 300)
    seen = set(sizes.tolist())
    assert 1 in seen and 3 in seen
    assert all(v % 2 == 1 for v in seen)


def test_progeny_law_small():
    lam, horizon = 1.0, math.log(2.0)
    n = 200_000
    sizes, _ = batch_progeny(Code((0,), 0), horizon, exponential_model(lam), 1, 77, n)
    assert np.all(sizes % 2 == 1)
    for m in range(5):
        emp = np.count_nonzero(sizes == 2 * m + 1) / n
        assert abs(emp - 0.5 ** (m + 1)) <= 0.02


def test_weighted_progeny_unit_weights():
    tree = sample_tree(Code((1,), 0), 0.0, (0.0,), 1.0, MODEL, 1, seed=4, sample_index=0)
    assert weighted_progeny(tree, unit_weights()) == 1.0
    # on the batch, for both chains, whatever the trees' sizes
    for dominating in (False, True):
        sizes, values = batch_progeny(Code((1, 1), 0), 1.0, MODEL, 2, 4, 500, dominating=dominating)
        assert sizes.max() > 1
        assert np.all(values == 1.0)


def test_weighted_progeny_single_survivor_and_depth_one():
    w = WeightSpec(
        sigma_boundary=lambda a, j: 2.0 + sum(a) + 0.1 * (j + 1),
        sigma_inner=lambda a, j, k: 1.5 + k,
        kappa=1.0,
    )
    c0 = Code((2,), 3)
    root_only = TreeSample(
        branches=(BranchRecord((), c0, 0.0, 9.9, (0.0,), (0.1,), None),),
        survived_labels=((),),
        died_labels=(),
        generation_counts={0: 1},
    )
    assert weighted_progeny(root_only, w) == pytest.approx(w.sigma_boundary((2,), 3))

    entries = offspring_set(c0, 1)
    entry = entries[1]  # kind 0, beta=(1,): children (1,0) and (1,4)
    assert entry.kind == 0 and entry.beta == (1,)
    tree = TreeSample(
        branches=(
            BranchRecord((), c0, 0.0, 0.3, (0.0,), None, entry),
            BranchRecord((1,), entry.children[0], 0.3, 9.9, (0.0,), (0.0,), None),
            BranchRecord((2,), entry.children[1], 0.3, 9.9, (0.0,), (0.0,), None),
        ),
        survived_labels=((1,), (2,)),
        died_labels=((),),
        generation_counts={0: 1, 1: 2},
    )
    expected = (
        w.sigma_inner((2,), 3, 0)
        * w.sigma_boundary((1,), 0)
        * w.sigma_boundary((1,), 4)
    )
    assert weighted_progeny(tree, w) == pytest.approx(expected)


def _survival_curve(values, grid):
    values = np.sort(np.asarray(values))
    return np.array([np.mean(values > g) for g in grid])


def test_stochastic_dominance_of_weighted_progeny():
    # survival of N on the original tree sits below survival of N~ on the
    # dominating chain at 20 pooled quantiles, up to two-sample 99% DKW bands
    lam, T = 1.0, 0.1
    p = stability.GrowthParams(
        regime=stability.Factorial(theta=Fraction(1), r=Fraction(1)),
        delta1=Fraction(1),
        delta2=Fraction(1),
        lam=lam,
        T=T,
        d=1,
    )
    assert stability.verify_weight_dominance_algebra(p, alphamax=4, jmax=2)
    w = p.build_weights()
    n = 80_000
    for alpha, j in (((0,), 0), ((1,), 0)):
        _, n_vals = batch_progeny(Code(alpha, j), T, MODEL, 1, 100, n, w, dominating=False)
        _, nt_vals = batch_progeny(Code(alpha, j), T, exponential_model(lam), 1, 200, n, w)
        pooled = np.concatenate([n_vals, nt_vals])
        grid = np.quantile(pooled, np.linspace(0.02, 0.98, 20))
        eps = 2.0 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
        s_orig = _survival_curve(n_vals, grid)
        s_dom = _survival_curve(nt_vals, grid)
        assert np.all(s_orig <= s_dom + eps)


# The batched dominating chain's mean weighted progeny against the series
# expected_weighted_progeny sums, in units of its standard error, at n =
# 10^5 and seed 5, at x/R = (1 - exp(-lam T)) delta1 delta2 / R <= 0.3 with
# delta1 = delta2 = 1.  W~ is heavy-tailed, more so as x/R and the growth of
# the weights rise: at factorial d = 2, x/R = 0.3, |alpha| = 3, z reached -6
# over seeds 1-8, so factorial d = 2 stops at x/R = 0.1; at the points below
# |z| stayed under 3 over seeds 1-12.  The mean depends on lam and T through
# x alone, so lam changes with x.  The series terms fall at least as x/R:
# ktrunc = 30 agrees with 60 to a relative 4e-16 here.
SE_GATE = {
    "factorial-d1": (stability.Factorial(1.0, 1.0), 1, [(0,), (1,), (3,)], (0.05, 0.1, 0.2)),
    "factorial-d2": (stability.Factorial(1.5, 1.0), 2, [(0, 0), (1, 1), (2, 1)], (0.03, 0.06, 0.1)),
    "exponential-d1": (stability.Exponential(1.5), 1, [(0,), (1,), (3,)], (0.1, 0.2, 0.3)),
    "exponential-d2": (stability.Exponential(1.0), 2, [(0, 0), (1, 1), (2, 1)], (0.1, 0.2, 0.3)),
}


@pytest.mark.parametrize("name", sorted(SE_GATE))
def test_dominating_mean_weighted_progeny_matches_the_series(name):
    regime, d, alphas, ratios = SE_GATE[name]
    n = 100_000
    for lam, ratio in zip((1.0, 2.0, 0.5), ratios):
        x = ratio * stability.GrowthParams(regime, 1.0, 1.0, lam, 1.0, d).radius()
        T = -math.log1p(-x) / lam
        p = stability.GrowthParams(regime, 1.0, 1.0, lam, T, d)
        w = p.build_weights()
        for alpha in alphas:
            series = progeny.expected_weighted_progeny(alpha, 0, lam, T, p, ktrunc=30)["value"]
            _, values = batch_progeny(Code(alpha, 0), T, exponential_model(lam), d, 5, n, w)
            z = (values.mean() - series) / (values.std(ddof=1) / math.sqrt(n))
            assert abs(z) <= 4.0, (alpha, lam, T, z)


# --- the batched sampler against the one-tree reference ---------------------

from branchpde import tree as tree_module
from branchpde.lifetimes import tabulated_model
from branchpde.problems import b2_problem, constant_problem, zero_f_cosine_problem
from branchpde.tree import TreeBatch, evaluate_batch

BATCH_CONFIGS = {  # (problem, lifetime model, root code, start point, trees)
    "b2-shallow": (b2_problem(0.1), exponential_model(1.0), Code((0,), -1), (0.0,), 2000),
    "b2-deep": (b2_problem(0.5), exponential_model(2.0), Code((3,), 0), (0.0,), 2000),
    "constant": (constant_problem(0.6), exponential_model(1.0), Code((0,), 0), (0.0,), 2000),
    "zero-f-cosine-d1": (
        zero_f_cosine_problem(0.5), exponential_model(1.0), Code((1,), 0), (0.3,), 2000
    ),
    "zero-f-cosine-d2": (
        zero_f_cosine_problem(0.3, d=2), exponential_model(1.0), Code((1, 1), 0), (0.3, -0.2), 2000
    ),
    # the tabulated model's scalar inverse CDF is slow, hence fewer trees
    "tabulated": (
        constant_problem(0.6),
        tabulated_model([(0.0, 1.0), (1.0, 0.5), (3.0, 0.2)], lam=1.0),
        Code((0,), 0),
        (0.0,),
        200,
    ),
}


# weights that tell codes, kinds and survival apart
SPREAD_WEIGHTS = WeightSpec(
    sigma_boundary=lambda a, j: 1.0 + 0.25 * sum(a) + 0.125 * (j + 1),
    sigma_inner=lambda a, j, k: 0.75 + 0.5 * k + 0.0625 * sum(a) * (j + 2),
)


def batch_records(batch):
    """Per tree of a batch: label -> (code, birth, death, position, entry),
    rebuilt from the generations through the parent rows."""
    trees = [{} for _ in range(len(batch))]
    previous = []
    for gen in batch:
        labels = [
            () if parent < 0 else previous[parent] + (int(k),)
            for parent, k in zip(gen.parent.tolist(), gen.child.tolist())
        ]
        for row, label in enumerate(labels):
            code = batch.codes.codes[gen.code[row]]
            entry = offspring_set(code, batch.d)[gen.entry[row]] if gen.died[row] else None
            trees[gen.sample[row]][label] = (
                code,
                gen.birth[row],
                gen.birth[row] + gen.tau[row],
                tuple(gen.position[row]),
                entry,
            )
        previous = labels
    return trees


@pytest.mark.parametrize("name", sorted(BATCH_CONFIGS))
def test_batch_grows_the_trees_of_sample_tree(name):
    problem, model, c0, x, n = BATCH_CONFIGS[name]
    T, d, seed = problem.T, problem.d, 17
    batch = TreeBatch(c0, 0.0, x, T, model, d, seed, range(n))
    trees = batch_records(batch)
    values = evaluate_batch(
        TreeBatch(c0, 0.0, x, T, model, d, seed, range(n)), problem.oracle, model, T
    )
    progenies = weighted_progeny_batch(TreeBatch(c0, 0.0, x, T, model, d, seed, range(n)), SPREAD_WEIGHTS)
    assert not batch.capped.any()
    for i in range(n):
        ref = sample_tree(c0, 0.0, x, T, model, d, seed, i)
        got = trees[i]
        assert sorted(got) == [r.label for r in ref.branches]
        assert batch.branches[i] == len(ref)
        assert batch.depth[i] == max(ref.generation_counts)
        for r in ref.branches:
            code, birth, death, position, entry = got[r.label]
            assert code == r.code
            assert (birth, death) == (r.birth_time, r.death_time)
            if r.offspring_entry is None:
                assert entry is None and position == r.terminal_position
            else:
                assert (entry.kind, entry.beta) == (r.offspring_entry.kind, r.offspring_entry.beta)
                assert entry == r.offspring_entry
        expected = evaluate_functional(ref, problem.oracle, model, T)
        assert values[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
        expected = weighted_progeny(ref, SPREAD_WEIGHTS)
        assert progenies[i] == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_dominating_batch_spawns_the_entries_of_the_dominating_mechanism():
    # the dominating chain takes the original chain's draws, and every death
    # spawns the two children of its entry in dominating_offspring_set
    c0, T, model, d, seed, n = Code((2, 1), 0), 0.5, exponential_model(2.0), 2, 9, 500
    original = next(iter(TreeBatch(c0, 0.0, (0.0, 0.0), T, model, d, seed, range(n))))
    batch = TreeBatch(c0, 0.0, (0.0, 0.0), T, model, d, seed, range(n), dominating=True)
    generations = list(batch)
    assert np.array_equal(generations[0].tau, original.tau)
    assert np.array_equal(generations[0].entry, original.entry)
    directional = 0
    for gen, children in zip(generations, generations[1:]):
        for row in np.flatnonzero(gen.died).tolist():
            alpha, j = batch.codes.codes[gen.code[row]]
            entry = dominating_offspring_set(alpha, j, d)[gen.entry[row]]
            spawned = tuple(batch.codes.codes[k] for k in children.code[children.parent == row])
            assert spawned == entry.children
            directional += entry.kind > 0
    assert directional > 0
    assert np.all(batch.branches % 2 == 1)
    with pytest.raises(ValueError):
        TreeBatch(Code((1,), -1), 0.0, (0.0,), T, model, 1, seed, range(n), dominating=True)


def test_branch_rng_draws_what_the_batch_draws():
    # a root's draws in order: lifetime uniform, d normals, offspring uniform
    model, c0, T = exponential_model(1.0), Code((1, 0), 0), 1.0
    gen = next(iter(TreeBatch(c0, 0.0, (0.0, 0.0), T, model, 2, 4, range(3, 40))))
    assert 0 < gen.died.sum() < gen.died.size
    for row, i in enumerate(range(3, 40)):
        rng = branch_rng(4, i, ())
        tau = model.inverse_cdf(rng.random())
        assert tau == gen.tau[row]
        scale = math.sqrt(tau if gen.died[row] else T)
        assert tuple(rng.standard_normal(2) * scale) == tuple(gen.position[row])
        if gen.died[row]:
            entry = sample_offspring(c0, 2, rng.random())
            assert offspring_set(c0, 2)[gen.entry[row]] == entry


@pytest.mark.parametrize(
    "T, caps, budget, splits",
    [(2.5, Caps(48, 200), tree_module.FRONTIER_BUDGET, False), (4.0, Caps(200, 10), 1000, True)],
)
def test_batch_caps_the_trees_sample_tree_refuses(monkeypatch, T, caps, budget, splits):
    # the second config is supercritical, and its trees pass the frontier
    # budget set here, so the estimator samples the index range in parts
    monkeypatch.setattr(tree_module, "FRONTIER_BUDGET", budget)
    problem, model, c0, seed, n = b2_problem(T), exponential_model(1.0), Code((0,), 0), 3, 300
    refused = set()
    for i in range(n):
        try:
            sample_tree(c0, 0.0, (0.0,), T, model, 1, seed, i, caps)
        except CapExceeded:
            refused.add(i)
    try:
        for _ in TreeBatch(c0, 0.0, (0.0,), T, model, 1, seed, range(n), caps):
            pass
        split = False
    except tree_module.FrontierFull:
        split = True
    assert split == splits
    setup = ProblemSetup(problem.oracle, model, 1)
    samples = _sample_values(setup, c0, 0.0, (0.0,), T, range(n), seed, caps)
    assert 0 < len(refused) < n
    assert set(np.flatnonzero(samples.capped).tolist()) == refused
    assert np.isnan(samples.values[samples.capped]).all()
    assert np.isfinite(samples.values[~samples.capped]).all()


# --- the code table's closed form and the array draws -----------------------

from itertools import product

from branchpde import mechanism


@pytest.mark.parametrize("d", [1, 2, 3])
def test_code_table_rows_equal_the_fraction_mechanism(d):
    codes = [Code(alpha, j) for alpha in product(range(5), repeat=d) for j in (-1, 0, 2)]
    table = tree_module.CodeTable(d)
    dominating = tree_module.CodeTable(d, dominating=True)
    for t in (table, dominating):
        t.build(np.array([t.intern(c) for c in codes]))
    for c in codes:
        entries = offspring_set(c, d)
        expected = [
            (float(e.weight / offspring_prob(c, e, d)), e.kind, len(e.children), e.children)
            for e in entries
        ]
        assert table_rows(table, c, len(entries)) == expected
        if c.j >= 0:  # the dominating table: the same rows, recoded children
            recoded = [e.children for e in dominating_offspring_set(c.alpha, c.j, d)]
            got = table_rows(dominating, c, len(entries))
            assert got == [row[:3] + (kids,) for row, kids in zip(expected, recoded)]


def table_rows(table, c, count):
    """(ratio, kind, nchild, children) of the rows of code c."""
    first = table.first[table.intern(c)]
    return [
        (
            table.ratio[row],
            table.kind[row],
            table.nchild[row],
            tuple(table.codes[k] for k in table.child[row] if k >= 0),
        )
        for row in range(first, first + count)
    ]


def test_array_hash_equals_int_hash_at_edge_keys():
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15
    # 0, the largest key, and keys whose sum with the counter's increment
    # (counter + 1) * gamma mod 2^64 wraps past 2^64
    keys = [0, 1, mask, mask - 1, (1 << 63), (1 << 64) - gamma, (1 << 64) - gamma + 1,
            (1 << 64) - 2 * gamma % (1 << 64), 0x0123456789ABCDEF]
    for counter in (0, 1, 2, 7):
        step = ((counter + 1) * gamma) & mask
        assert any(k + step > mask for k in keys)
        got = tree_module._hash(np.array(keys, dtype=np.uint64), counter)
        assert got.dtype == np.uint64
        assert got.tolist() == [tree_module._hash(k, counter) for k in keys]
        # the key array is left as it was
        assert tree_module._hash(np.array(keys, dtype=np.uint64), counter).tolist() == got.tolist()
    counters = np.array([0, 1, mask - 1, mask], dtype=np.uint64)
    for key in keys:
        assert tree_module._hash(key, counters).tolist() == [
            tree_module._hash(key, int(c)) for c in counters
        ]
        array = np.array([key] * 4, dtype=np.uint64)
        assert tree_module._mix(array, counters).tolist() == [
            tree_module._mix(key, int(c)) for c in counters
        ]
        assert array.tolist() == [key] * 4
    assert tree_module._fmix(np.array(keys, dtype=np.uint64)).tolist() == [
        tree_module._fmix(k) for k in keys
    ]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_normals_of_a_key_array_equal_the_one_key_normals(d):
    keys = tree_module._root_keys(5, np.arange(40))
    columns = tree_module._normals(keys, 1, d)
    assert len(columns) == d
    for row, key in enumerate(keys.tolist()):
        assert [c[row] for c in columns] == tree_module._normals(key, 1, d)


@pytest.mark.parametrize("name", ["b2-deep", "zero-f-cosine-d2"])
def test_batch_builds_its_code_table_without_the_fraction_mechanism(monkeypatch, name):
    problem, model, c0, x, n = BATCH_CONFIGS[name]
    T, d, seed = problem.T, problem.d, 23

    def run():
        batch = TreeBatch(c0, 0.0, x, T, model, d, seed, range(n))
        return evaluate_batch(batch, problem.oracle, model, T), batch

    reference, _ = run()

    def refuse(*args, **kwargs):
        raise AssertionError("the batched sampler used the Fraction mechanism")

    for module in (tree_module, mechanism):
        for fn in ("offspring_prob", "offspring_set"):
            monkeypatch.setattr(module, fn, refuse, raising=False)
    values, batch = run()
    assert len(batch.codes.codes) > 1
    assert np.array_equal(values, reference)
