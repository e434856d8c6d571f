import io
import math

import numpy as np
import pytest

from branchpde.estimator import (
    AllSamplesCapped,
    AssumptionHViolated,
    CodeOracle,
    ProblemSetup,
    estimate_u,
    median_of_means,
    write_csv,
)
from branchpde.lifetimes import exponential_model, tabulated_model
from branchpde.mechanism import Code
from branchpde.problems import b2_problem, heat_apply, zero_f_cosine_problem
from branchpde.tree import Caps

ID = Code((0,), -1)


def ones_setup(lam=1.0):
    def oracle_fn(code, x):
        if code.j >= 0:
            return 0.0
        return 1.0 if sum(code.alpha) == 0 else 0.0

    return ProblemSetup(CodeOracle(oracle_fn), exponential_model(lam), 1)


def b2_setup(T, lam=1.0):
    problem = b2_problem(T)
    return problem, ProblemSetup(problem.oracle, exponential_model(lam), 1)


def test_terminal_time_degenerate():
    problem, setup = b2_setup(0.1)
    est = estimate_u(ID, 0.1, (0.4,), 0.1, setup, n=10, seed=0)
    assert est.mean == pytest.approx(problem.phi((0.4,)), abs=1e-14)
    assert est.std_error == 0.0
    assert est.n_capped == 0


def test_zero_nonlinearity_constant_terminal():
    est = estimate_u(ID, 0.0, (0.0,), 0.4, ones_setup(), n=5000, seed=10)
    assert abs(est.mean - 1.0) <= 3.0 * est.std_error


def test_b2_matches_closed_form_small():
    T = 0.1
    problem, setup = b2_setup(T)
    est = estimate_u(ID, 0.0, (0.0,), T, setup, n=30_000, seed=2024)
    exact = problem.exact_solution(0.0, (0.0,))
    assert exact == pytest.approx(2.0 * math.log((2 + math.exp(-0.1)) / (1 + math.exp(-0.1))))
    assert abs(est.mean - exact) <= 3.0 * est.std_error
    assert est.std_error < 0.01


def test_determinism_and_workers_must_be_one():
    T = 0.1
    _, setup = b2_setup(T)
    a = estimate_u(ID, 0.0, (0.0,), T, setup, n=2000, seed=5)
    b = estimate_u(ID, 0.0, (0.0,), T, setup, n=2000, seed=5, workers=1)
    assert a.mean == b.mean and a.std_error == b.std_error
    for workers in (0, 2, 3):
        with pytest.raises(ValueError, match="one process"):
            estimate_u(ID, 0.0, (0.0,), T, setup, n=2000, seed=5, workers=workers)


def test_heat_semigroup_sanity():
    # f = 0, phi = cos: E[H] = S(T-t) phi (x), independently by quadrature
    for horizon in (0.05, 0.2):
        problem = zero_f_cosine_problem(horizon)
        setup = ProblemSetup(problem.oracle, exponential_model(1.0), 1)
        est = estimate_u(ID, 0.0, (0.3,), horizon, setup, n=20_000, seed=31)
        quad = heat_apply(lambda y: math.cos(float(y[0])), horizon, (0.3,))
        assert quad == pytest.approx(math.exp(-horizon / 2) * math.cos(0.3), rel=1e-10)
        assert abs(est.mean - quad) <= 3.0 * est.std_error


def test_se_scaling():
    T = 0.1
    _, setup = b2_setup(T)
    small = estimate_u(ID, 0.0, (0.0,), T, setup, n=4000, seed=8)
    large = estimate_u(ID, 0.0, (0.0,), T, setup, n=16_000, seed=8)
    assert large.std_error == pytest.approx(small.std_error / 2.0, rel=0.25)


def test_assumption_h_violation_raises():
    model = tabulated_model([(0.0, 2.0), (0.5, 0.0), (1.0, 2.0)], lam=1.0)
    setup = ProblemSetup(CodeOracle(lambda c, x: 1.0), model, 1)
    with pytest.raises(AssumptionHViolated):
        estimate_u(ID, 0.0, (0.0,), 1.0, setup, n=10, seed=0)


def test_all_samples_capped():
    _, setup = b2_setup(2.5)
    with pytest.raises(AllSamplesCapped):
        estimate_u(
            Code((0,), 0), 0.0, (0.0,), 2.5, setup, n=5, seed=1,
            caps=Caps(max_branches=1, max_generation=200),
        )


def test_capped_samples_are_excluded_and_counted():
    _, setup = b2_setup(2.5)
    est = estimate_u(
        Code((0,), 0), 0.0, (0.0,), 2.5, setup, n=400, seed=17,
        caps=Caps(max_branches=48, max_generation=200),
    )
    assert 0 < est.n_capped < 400
    assert est.n_samples == 400


def test_estimate_u_symmetry():
    # phi = cos is even and f = 0: means at x and -x agree within 3 combined SE
    horizon = 0.2
    problem = zero_f_cosine_problem(horizon)
    setup = ProblemSetup(problem.oracle, exponential_model(1.0), 1)
    e1 = estimate_u(ID, 0.0, (0.7,), horizon, setup, n=20_000, seed=6)
    e2 = estimate_u(ID, 0.0, (-0.7,), horizon, setup, n=20_000, seed=7)
    combined = math.hypot(e1.std_error, e2.std_error)
    assert abs(e1.mean - e2.mean) <= 3.0 * combined


def test_median_of_means():
    T = 0.1
    problem, setup = b2_setup(T)
    # degenerate t = T: identical to the mean estimator
    at_t = median_of_means(ID, T, (0.2,), T, setup, n=50, groups=5, seed=0)
    assert at_t.mean == estimate_u(ID, T, (0.2,), T, setup, n=50, seed=0).mean
    # groups=1 reduces to the plain mean
    plain = estimate_u(ID, 0.0, (0.0,), T, setup, n=3000, seed=9)
    mom1 = median_of_means(ID, 0.0, (0.0,), T, setup, n=3000, groups=1, seed=9)
    assert mom1.mean == plain.mean
    # consistency on the same expectation
    mom = median_of_means(ID, 0.0, (0.0,), T, setup, n=30_000, groups=9, seed=9)
    combined = math.hypot(mom.std_error, plain.std_error)
    assert abs(mom.mean - plain.mean) <= 3.0 * combined
    with pytest.raises(ValueError):
        median_of_means(ID, 0.0, (0.0,), T, setup, n=100, groups=4, seed=0)


def test_write_csv_layout():
    T = 0.1
    problem, setup = b2_setup(T)
    points = ((0.0, (0.0,)), (T, (0.4,)))
    rows = [(t, x, estimate_u(ID, t, x, T, setup, n=500, seed=11)) for t, x in points]
    buf = io.StringIO()
    write_csv(buf, rows, ID, 500, 11)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "t,x_1,code_alpha,code_j,mean,std_error,n,n_capped,seed"
    fields = lines[1].split(",")
    assert fields[0] == "0.0" and fields[2] == "0" and fields[3] == "-1"
    assert int(fields[6]) == 500 and int(fields[8]) == 11
    # a t = T row holds the terminal value, as a plain float
    fields = lines[2].split(",")
    assert fields[4] == repr(float(problem.phi((0.4,)))) and fields[5] == "0.0"


# --- batched sampling: range splits and telemetry ---------------------------

from branchpde import estimator, tree
from branchpde.tree import sample_tree


def _same_samples(a, b):
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert np.array_equal(a.capped, b.capped)
    assert np.array_equal(a.branches, b.branches)
    assert np.array_equal(a.depth, b.depth)


@pytest.mark.parametrize("code, T, caps", [
    (Code((3,), 0), 0.5, Caps()),
    (Code((0,), 0), 2.5, Caps(max_branches=48, max_generation=200)),
])
def test_per_sample_values_do_not_depend_on_the_split(monkeypatch, code, T, caps):
    problem = b2_problem(T)
    setup = ProblemSetup(problem.oracle, exponential_model(2.0 if T < 1 else 1.0), 1)
    n, seed = 601, 13
    whole = estimator._sample_values(setup, code, 0.0, (0.0,), T, range(n), seed, caps)
    parts = [
        estimator._sample_values(setup, code, 0.0, (0.0,), T, range(lo, hi), seed, caps)
        for lo, hi in ((0, 1), (1, 7), (7, 300), (300, 301), (301, n))
    ]
    _same_samples(estimator._concat(parts), whole)
    est = estimate_u(code, 0.0, (0.0,), T, setup, n, seed, caps)
    assert (est.mean, est.std_error) == estimator._mean(whole.values[~whole.capped])
    assert est.n_capped == np.count_nonzero(whole.capped)
    # a small budget splits the range and evaluates survivors in several passes
    sizes = []

    def recording_batch(c, t, x, T_, model, d, seed_, indices, caps_):
        sizes.append(len(indices))
        return tree.TreeBatch(c, t, x, T_, model, d, seed_, indices, caps_)

    monkeypatch.setattr(tree, "FRONTIER_BUDGET", 300)
    monkeypatch.setattr(estimator, "TreeBatch", recording_batch)
    split = estimator._sample_values(setup, code, 0.0, (0.0,), T, range(n), seed, caps)
    _same_samples(split, whole)
    assert min(sizes) < n // 2


def test_estimate_stats_count_the_trees_of_sample_tree():
    T, caps, n, seed = 2.5, Caps(max_branches=48, max_generation=200), 300, 17
    problem, setup = b2_setup(T)
    est = estimate_u(Code((0,), 0), 0.0, (0.0,), T, setup, n=n, seed=seed, caps=caps)
    sizes, depths = [], []
    for i in range(n):
        try:
            ref = sample_tree(Code((0,), 0), 0.0, (0.0,), T, setup.model, 1, seed, i, caps)
        except tree.CapExceeded:
            continue
        sizes.append(len(ref))
        depths.append(max(ref.generation_counts))
    sizes.sort()
    assert est.n_capped == n - len(sizes) > 0
    assert est.stats.branches_mean == pytest.approx(sum(sizes) / len(sizes), rel=1e-15)
    assert est.stats.branches_p99 == sizes[math.ceil(0.99 * len(sizes)) - 1]
    assert est.stats.branches_max == sizes[-1]
    assert est.stats.max_generation == max(depths)
    mom = median_of_means(Code((0,), 0), 0.0, (0.0,), T, setup, n, 3, seed, caps)
    assert mom.stats == est.stats
    # positional construction without stats still works
    assert estimator.Estimate(1.0, 0.1, 10, 0, 0.0).stats is None


@pytest.mark.parametrize("n, groups, bounds", [
    (7, 5, [(0, 1), (1, 2), (2, 4), (4, 5), (5, 7)]),
    (10, 3, [(0, 3), (3, 6), (6, 10)]),
    (9, 9, [(i, i + 1) for i in range(9)]),
])
def test_median_of_means_forms_exactly_the_groups_asked(n, groups, bounds):
    # groups contiguous parts, lo_i = i n // groups, sizes differing by at most one
    T, seed = 0.1, 3
    _, setup = b2_setup(T)
    values = estimator._sample_values(setup, ID, 0.0, (0.0,), T, range(n), seed, Caps()).values
    means = [float(np.sum(values[lo:hi])) / (hi - lo) for lo, hi in bounds]
    mom = median_of_means(ID, 0.0, (0.0,), T, setup, n=n, groups=groups, seed=seed)
    assert mom.mean == float(np.median(means))
    assert mom.mean == sorted(means)[groups // 2]


def test_median_of_means_refuses_fewer_samples_than_groups():
    T = 0.1
    _, setup = b2_setup(T)
    with pytest.raises(ValueError, match="n >= groups"):
        median_of_means(ID, 0.0, (0.0,), T, setup, n=4, groups=5, seed=0)
