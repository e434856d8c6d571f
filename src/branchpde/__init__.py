"""Branching-diffusion Monte Carlo for semilinear heat equations, plus the
integrability analysis of the weighted random trees driving it.

The analyzer half is imported with the package: `lifetimes`, `mechanism`
and `stability` (which loads `progeny`, `multiindex` and `combinatorics`),
and their names below are bound at import.  The sampler half (`estimator`,
`tree`, `problems`, `jets`) is not: the `estimator` and `tree` names in
`_LAZY` resolve on first use through the module `__getattr__` (PEP 562),
so `import branchpde` and the analyzer commands pay no import or compile
time for code they never run.  `from branchpde import estimate_u` still
works and gives the `estimator` module's own object.

`stability` stays eager although only the analyzer uses it: the
benchmark's traced run imports `estimator`, `lifetimes`, `problems` and
`progeny`, then looks every traced module, `stability` among them, up in
`sys.modules`.
"""

from importlib import import_module

from .lifetimes import LifetimeModel, exponential_model, validate_assumption_h
from .mechanism import Code, MechanismEntry, offspring_prob, offspring_set, sample_offspring
from .stability import Exponential, Factorial, GrowthParams, check_conditions, hbound, max_horizon

# each sampler name re-exported here -> the module that defines it
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
