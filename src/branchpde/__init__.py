"""Branching-diffusion Monte Carlo for semilinear heat equations, plus the
integrability analysis of the weighted random trees driving it.

The package imports `lifetimes` and `mechanism` (with `multiindex`),
which both halves use, and binds their names below.  Neither the analyzer
(`stability`, `progeny`, `combinatorics`) nor the sampler (`estimator`,
`tree`, `problems`, `jets`) is imported with it: the names in `_LAZY`
resolve on first use through the module `__getattr__` (PEP 562), so
`import branchpde`, a `solve` and the analyzer commands pay no import or
compile time for the half they never run.  `from branchpde import
estimate_u` or `from branchpde import Factorial` still works and gives the
defining module's own object.
"""

from importlib import import_module

from .lifetimes import LifetimeModel, exponential_model, validate_assumption_h
from .mechanism import Code, MechanismEntry, offspring_prob, offspring_set, sample_offspring

# each sampler or analyzer name re-exported here -> the module that defines it
_LAZY = {
    **dict.fromkeys(
        (
            "AllSamplesCapped",
            "AssumptionHViolated",
            "CodeOracle",
            "Estimate",
            "ProblemSetup",
            "estimate_u",
            "median_of_means",
        ),
        "estimator",
    ),
    **dict.fromkeys(
        (
            "BranchRecord",
            "CapExceeded",
            "Caps",
            "TreeSample",
            "WeightSpec",
            "evaluate_functional",
            "sample_tree",
            "weighted_progeny",
        ),
        "tree",
    ),
    **dict.fromkeys(
        ("Exponential", "Factorial", "GrowthParams", "check_conditions", "hbound", "max_horizon"),
        "stability",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
