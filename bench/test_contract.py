"""Tests that the traced run lists, and leaves behind, what it should.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, self_times  # noqa: E402
from workloads import SPAN_NAMES, TRACED, Counts, Solve, instrument  # noqa: E402


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = (
        [f"{n}.{k}" for n in SPAN_NAMES for k in ("calls", "self_s")]
        + list(Counts().metrics())
        + ["bench.trace_overhead"]
    )
    assert [m["name"] for m in spec["per_layer"]] == emitted


def test_traced_job_matches_untraced_and_restores_attributes():
    import branchpde

    modules = [m for k, m in sys.modules.items() if k.startswith("branchpde")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    w = Solve(T=0.5, lam=2.0, alpha=(3,), j=0, n=300)
    plain = w.job(w.setup(7))

    tracer, counts = Tracer(), Counts()
    instrument(tracer, counts)
    try:
        traced = w.job(w.setup(7))
    finally:
        assert tracer.restore()

    assert Solve.fingerprint(traced) == Solve.fingerprint(plain)
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert branchpde.estimate_u is branchpde.estimator.estimate_u

    layers = self_times(tracer.spans())
    assert layers["estimator.estimate_u"][0] == 1
    assert layers["tree.sample_tree"][0] == 300
    for mod, attr in TRACED[:7]:  # the solve path's functions all ran
        assert layers[f"{mod}.{attr}"][0] >= 1
    assert {"problems.oracle.jet", "lifetimes.density", "lifetimes.survival"} <= set(layers)
    metrics = counts.metrics()
    assert metrics["tree.branches_per_tree.max"][0] >= metrics["tree.branches_per_tree.p99"][0] >= 1
    assert sum(counts.tree_sizes) == layers["tree.branch_rng"][0]
