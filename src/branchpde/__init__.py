"""Branching-diffusion Monte Carlo for semilinear heat equations, plus the
integrability analysis of the weighted random trees driving it."""

from .estimator import (
    AllSamplesCapped,
    AssumptionHViolated,
    CodeOracle,
    Estimate,
    ProblemSetup,
    estimate_u,
    median_of_means,
)
from .lifetimes import LifetimeModel, exponential_model, validate_assumption_h
from .mechanism import Code, MechanismEntry, offspring_prob, offspring_set, sample_offspring
from .stability import Exponential, Factorial, GrowthParams, build_weights, check_conditions, hbound, max_horizon
from .tree import (
    BranchRecord,
    CapExceeded,
    Caps,
    TreeSample,
    WeightSpec,
    evaluate_functional,
    sample_tree,
    weighted_progeny,
)

__version__ = "0.1.0"
