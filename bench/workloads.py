"""The benchmark's workloads and the layers its traced run instruments.

Each workload is a fixed job on inputs made from the seed.  `setup(seed)`
imports branchpde, builds the problem, lifetime model and growth
parameters, and validates the lifetime model; `job(ctx)` makes the timed
calls into branchpde's public API, in this process, with workers=1;
`check(ctx, result)` gates the outputs against exact values.

Every call into branchpde goes through a module attribute looked up at call
time, so the traced run can swap those attributes for span-recording
wrappers (see `instrument`).

Workloads, by the layer they stress:
  solve-b2-shallow  b2, T=0.1, lambda=1, code (0,)/-1: trees average ~1.1
                    branches, so the fixed per-tree cost (branch RNG,
                    record building, aggregation) dominates and the
                    mechanism and jet oracle are nearly idle.
  solve-b2-deep     b2, T=0.5, lambda=2, code (3,)/0: ~4 branches per tree,
                    each with a derivative code, so the offspring mechanism
                    and the jet oracle do real work beside the RNG.
  analyze-series    the exact (Fraction) A-hat table and the float series
                    and bound sweep, timed apart so that trading one for
                    the other shows.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

Z_GATE = 4.0  # a solve run fails when |mean - exact| > Z_GATE standard errors


def _alphas(d: int, max_order: int) -> list[tuple]:
    return [a for a in product(range(max_order + 1), repeat=d) if sum(a) <= max_order]


@dataclass(frozen=True)
class SolveContext:
    estimator: object  # the branchpde.estimator module
    setup: object      # branchpde ProblemSetup
    code: object
    exact: float
    seed: int


class Solve:
    """Monte Carlo estimate of one b2 code value at (t, x) = (0, 0)."""

    def __init__(self, T: float, lam: float, alpha: tuple, j: int, n: int, target_se=None):
        self.T, self.lam, self.alpha, self.j, self.n = T, lam, alpha, j, n
        self.target_se = target_se  # reported as time_to_se_s when set

    def setup(self, seed: int) -> SolveContext:
        from branchpde import estimator, lifetimes, problems
        from branchpde.mechanism import Code

        problem = problems.make_problem("b2", self.T)
        model = lifetimes.exponential_model(self.lam)
        report = lifetimes.validate_assumption_h(model, self.T)
        if not report.ok:
            raise RuntimeError("; ".join(report.failures))
        m = sum(self.alpha)
        # u_c(0, 0) is coefficient |alpha| of the exact solution's code jet
        exact = problem.solution_code_jet(0.0, 0.0, max(m, 1), self.j).coefficient(m)
        return SolveContext(
            estimator=estimator,
            setup=estimator.ProblemSetup(problem.oracle, model, problem.d),
            code=Code(self.alpha, self.j),
            exact=exact,
            seed=seed,
        )

    def job(self, ctx: SolveContext):
        return ctx.estimator.estimate_u(
            ctx.code, 0.0, (0.0,), self.T, ctx.setup, self.n, ctx.seed, workers=1
        )

    @staticmethod
    def fingerprint(est) -> tuple:
        """What must be bit-identical between two runs of the same job."""
        return (est.mean, est.std_error, est.n_samples, est.n_capped)

    @staticmethod
    def ops(est) -> int:
        return est.n_samples

    def check(self, ctx: SolveContext, est) -> dict:
        z = (est.mean - ctx.exact) / est.std_error
        return {
            "correct": math.isfinite(z) and abs(z) <= Z_GATE,
            "attempted": est.n_samples,
            "failed": est.n_capped,
            "mean": est.mean,
            "std_error": est.std_error,
            "exact": ctx.exact,
            "z": z,
        }

    def parts(self, est, wall: float) -> dict:
        """Timings derived from one repetition, in seconds."""
        if self.target_se is None:
            return {}
        # wall time to reach the target SE at this workload's variance
        return {"time_to_se_s": wall * (est.std_error / self.target_se) ** 2}


@dataclass(frozen=True)
class AnalyzeContext:
    progeny: object
    stability: object
    model: object
    g: object
    ewp: tuple    # (alpha, params, ktrunc) per expected_weighted_progeny call
    sweep: tuple  # GrowthParams per (regime, d, horizon)


@dataclass(frozen=True)
class AnalyzeResult:
    tables: tuple      # ahat_recursion memo dicts, one per alpha
    ewp: tuple         # expected_weighted_progeny dicts
    reports: tuple     # (ConditionReport, bound_report dicts) per sweep point
    failures: tuple    # calls that raised where the conditions passed
    calls: int
    exact_s: float
    float_s: float


class Analyze:
    """The analyzer's two uses: an exact A-hat table (as `branchpde progeny`
    prints it) and the float series plus condition-and-bound sweep."""

    EXACT_THETA, EXACT_R, EXACT_D, EXACT_KMAX, EXACT_ORDER = 1, 1, 2, 12, 3
    THETA, R, DELTA, LAM = 1.5, 1, 1.2, 1.0
    HORIZONS, MAX_HORIZON = 20, 0.01
    EWP = (((2,), 60), ((0, 0), 20))  # (alpha, ktrunc); d = len(alpha)

    def setup(self, seed: int) -> AnalyzeContext:
        from branchpde import lifetimes, progeny, stability

        rng = random.Random(seed)
        # one horizon drawn in each twentieth of (0, MAX_HORIZON]
        horizons = [
            self.MAX_HORIZON * (i + 1 - rng.random()) / self.HORIZONS
            for i in range(self.HORIZONS)
        ]
        model = lifetimes.exponential_model(self.LAM)
        report = lifetimes.validate_assumption_h(model, max(horizons))
        if not report.ok:
            raise RuntimeError("; ".join(report.failures))

        def params(regime, d, h):
            return stability.GrowthParams(regime, self.DELTA, self.DELTA, self.LAM, h, d)

        factorial = stability.Factorial(self.THETA, self.R)
        regimes = (factorial, stability.Exponential(self.THETA))
        return AnalyzeContext(
            progeny=progeny,
            stability=stability,
            model=model,
            g=progeny.g_factorial(Fraction(self.EXACT_THETA), Fraction(self.EXACT_R)),
            ewp=tuple(
                (alpha, params(factorial, len(alpha), max(horizons)), k)
                for alpha, k in self.EWP
            ),
            sweep=tuple(params(reg, d, h) for reg in regimes for d in (1, 2) for h in horizons),
        )

    def job(self, ctx: AnalyzeContext) -> AnalyzeResult:
        progeny, stability = ctx.progeny, ctx.stability
        t0 = time.perf_counter()
        tables = tuple(
            progeny.ahat_recursion(ctx.g, self.EXACT_D, alpha, self.EXACT_KMAX).values
            for alpha in _alphas(self.EXACT_D, self.EXACT_ORDER)
        )
        t1 = time.perf_counter()
        ewp = tuple(
            progeny.expected_weighted_progeny(alpha, 0, self.LAM, p.T, p, k)
            for alpha, p, k in ctx.ewp
        )
        calls = len(tables) + len(ewp)
        reports, failures = [], []
        for p in ctx.sweep:
            cond = stability.check_conditions(p, ctx.model)
            calls += 1
            bounds = []
            if cond.passed:
                for alpha in _alphas(p.d, self.EXACT_ORDER):
                    calls += 1
                    try:
                        bounds.append(progeny.bound_report(alpha, p, self.LAM, p.T))
                    except Exception as exc:  # counted as a failed call, run goes on
                        failures.append(f"bound_report({alpha}, {p}): {exc!r}")
            reports.append((cond, tuple(bounds)))
        t2 = time.perf_counter()
        return AnalyzeResult(tables, ewp, tuple(reports), tuple(failures), calls, t1 - t0, t2 - t1)

    @staticmethod
    def fingerprint(res: AnalyzeResult) -> tuple:
        return (res.tables, res.ewp, res.reports, res.failures, res.calls)

    @staticmethod
    def ops(res: AnalyzeResult) -> int:
        return res.calls

    def check(self, ctx: AnalyzeContext, res: AnalyzeResult) -> dict:
        closed = ctx.progeny.ahat_closed_factorial
        args = (self.EXACT_THETA, self.EXACT_R, self.EXACT_D)
        mismatches = sum(
            1
            for table in res.tables
            for (alpha, k), value in table.items()
            if sum(alpha) >= 1 and value != closed(*args, alpha, k)
        )
        floats = [v for r in res.ewp for v in r.values() if isinstance(v, float)]
        for cond, bounds in res.reports:
            floats += [x for c in cond.conditions for x in (c.lhs, c.rhs)]
            floats += [v for b in bounds for v in b.values() if isinstance(v, float)]
        nonfinite = sum(1 for v in floats if not math.isfinite(v))
        return {
            "correct": mismatches == 0 and nonfinite == 0,
            "attempted": res.calls,
            "failed": len(res.failures),
            "exact_entries": sum(len(t) for t in res.tables),
            "exact_mismatches": mismatches,
            "float_values": len(floats),
            "nonfinite": nonfinite,
            "conditions_passed": sum(1 for cond, _ in res.reports if cond.passed),
            "failures": list(res.failures),
        }

    @staticmethod
    def parts(res: AnalyzeResult, wall: float) -> dict:
        return {"exact_table_s": res.exact_s, "float_report_s": res.float_s}


WORKLOADS = {
    "solve-b2-shallow": Solve(T=0.1, lam=1.0, alpha=(0,), j=-1, n=40_000, target_se=1e-3),
    "solve-b2-deep": Solve(T=0.5, lam=2.0, alpha=(3,), j=0, n=20_000),
    "analyze-series": Analyze(),
}


# --- traced run --------------------------------------------------------------

# public functions given one span each, as (module, attribute)
TRACED = (
    ("tree", "branch_rng"),
    ("tree", "sample_tree"),
    ("tree", "evaluate_functional"),
    ("mechanism", "sample_offspring"),
    ("mechanism", "offspring_prob"),
    ("lifetimes", "validate_assumption_h"),
    ("estimator", "estimate_u"),
    ("progeny", "ahat_recursion"),
    ("progeny", "a_recursion"),
    ("progeny", "expected_weighted_progeny"),
    ("progeny", "bound_report"),
    ("progeny", "tracked_constant"),
    ("stability", "check_conditions"),
)
# spans on what factories return: lifetime model callables, oracle, g
PRODUCT_SPANS = (
    "lifetimes.inverse_cdf",
    "lifetimes.density",
    "lifetimes.survival",
    "problems.oracle.value",  # codes with |alpha| = 0
    "problems.oracle.jet",    # codes with |alpha| >= 1
    "progeny.g",
)
SPAN_NAMES = tuple(f"{m}.{a}" for m, a in TRACED) + PRODUCT_SPANS


class Counts:
    """Exact counts observed at layer boundaries during one traced job."""

    def __init__(self):
        self.tree_sizes: list[int] = []
        self.max_generation = 0
        self.capped = 0
        self.entries = {"progeny.ahat_recursion": 0, "progeny.a_recursion": 0}

    def tree(self, tree) -> None:
        self.tree_sizes.append(len(tree))
        self.max_generation = max(self.max_generation, max(tree.generation_counts))

    def estimate(self, est) -> None:
        self.capped += est.n_capped

    def table(self, name: str):
        def observe(table) -> None:
            self.entries[name] += len(table.values)
        return observe

    def metrics(self) -> dict:
        sizes = sorted(self.tree_sizes)
        n = len(sizes)
        out = {
            "tree.branches_per_tree.mean": (sum(sizes) / n if n else 0.0, "count"),
            # nearest-rank 99th percentile
            "tree.branches_per_tree.p99": (sizes[max(math.ceil(0.99 * n) - 1, 0)] if n else 0, "count"),
            "tree.branches_per_tree.max": (sizes[-1] if n else 0, "count"),
            "tree.max_generation": (self.max_generation, "count"),
            "estimator.capped": (self.capped, "count"),
        }
        for name, value in self.entries.items():
            out[f"{name}.entries"] = (value, "count")
        return out


def instrument(tracer, counts: Counts) -> None:
    """Swap branchpde's public functions for span-recording wrappers in every
    loaded branchpde module; `tracer.restore()` undoes it."""
    from branchpde import estimator, lifetimes, problems, progeny

    modules = [m for k, m in sorted(sys.modules.items()) if k == "branchpde" or k.startswith("branchpde.")]
    observers = {
        "tree.sample_tree": counts.tree,
        "estimator.estimate_u": counts.estimate,
        "progeny.ahat_recursion": counts.table("progeny.ahat_recursion"),
        "progeny.a_recursion": counts.table("progeny.a_recursion"),
    }
    for mod_name, attr in TRACED:
        owner = sys.modules[f"branchpde.{mod_name}"]
        name = f"{mod_name}.{attr}"
        tracer.swap(modules, owner, attr, tracer.wrap(name, getattr(owner, attr), observers.get(name)))

    make_model, make_problem, g_factorial = (
        lifetimes.exponential_model, problems.make_problem, progeny.g_factorial
    )

    def traced_model(*args, **kwargs):
        model = make_model(*args, **kwargs)
        return replace(model, **{
            f: tracer.wrap(f"lifetimes.{f}", getattr(model, f))
            for f in ("inverse_cdf", "density", "survival")
        })

    def traced_problem(*args, **kwargs):
        problem = make_problem(*args, **kwargs)
        value = tracer.wrap("problems.oracle.value", problem.oracle.evaluator)
        jet = tracer.wrap("problems.oracle.jet", problem.oracle.evaluator)

        def evaluator(code, x):
            return (jet if any(code.alpha) else value)(code, x)

        return replace(problem, oracle=estimator.CodeOracle(evaluator))

    def traced_g(*args, **kwargs):
        return tracer.wrap("progeny.g", g_factorial(*args, **kwargs))

    tracer.swap(modules, lifetimes, "exponential_model", traced_model)
    tracer.swap(modules, problems, "make_problem", traced_problem)
    tracer.swap(modules, progeny, "g_factorial", traced_g)
