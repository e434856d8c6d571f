"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; branchpde is imported from its
`src/`.  After one untimed warm-up, the workload's fixed job is repeated,
in this one process, for about S seconds (at least once), and every
repetition must give the same outputs.  The last line of standard output is

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are the end-to-end ones: setup_s (median of
several fresh-process set-ups), wall_s (median job time), ops_per_s and
peak_rss_mb.  Times are in nominal seconds: each is scaled by the host's
speed at that moment, measured by a fixed reference loop (collector off)
run right before and after it, to the speed at which that loop takes
NOMINAL_REFERENCE_S; the raw seconds are in the detail line.

With --trace 1 untraced and traced repetitions alternate, and the metrics
are per layer: calls and self time (raw seconds) of each traced function,
exact counts from the layer boundaries, and bench.trace_overhead.

The line before the result is a JSON record of the machine, the
per-repetition times and the gate details.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, self_times
from workloads import SPAN_NAMES, WORKLOADS, Counts, instrument

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
REFERENCE_ITEMS = 40_000
# The host's speed drifts between two levels about 1.5x apart, each held
# for tens of seconds, so times are scaled to a nominal speed: that at which
# the reference loop takes NOMINAL_REFERENCE_S (its time on an idle host).
NOMINAL_REFERENCE_S = 0.03


def git_sha(root: Path):
    """Commit of the git checkout at root; None outside one."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            check=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop, the yardstick for host speed.  It
    allocates, sorts and hashes like the workloads do, so it slows when
    they do, though not always by the same share.  The collector is off while it
    runs, so its time does not depend on how many objects the program keeps
    alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(7)
        items = [(rng.random(), i, str(i)) for i in range(REFERENCE_ITEMS)]
        items.sort()
        {key: (x, i) for x, i, key in items}
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_scale(samples: int) -> float:
    """Factor from this moment's host speed to the nominal one."""
    return NOMINAL_REFERENCE_S / statistics.median(reference_seconds() for _ in range(samples))


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times in nominal seconds, each from a fresh interpreter (so
    imports are included) that then measures the host's speed."""
    probe = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import workloads\n"
        "t0 = time.perf_counter()\n"
        f"workloads.WORKLOADS[{workload!r}].setup({seed})\n"
        "t1 = time.perf_counter()\n"
        "import run\n"
        "print((t1 - t0) * run.reference_scale(3))\n"
    )
    return [
        float(subprocess.run(
            [sys.executable, "-c", probe],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        ).stdout)
        for _ in range(SETUP_PROBES)
    ]


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_plain(name: str, w, seed: int, seconds: float):
    setups = setup_seconds(name, seed)
    ctx = w.setup(seed)
    first = w.job(ctx)  # untimed: lets caches fill and lazy set-up finish
    # peak memory of set-up plus one job, read before any reference loop runs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deadline = time.perf_counter() + seconds
    same, walls, scales, parts = True, [], [], []
    before = [reference_seconds()]
    # start a repetition only while at least half of it fits in the run
    while not walls or time.perf_counter() + 0.5 * walls[-1] < deadline:
        result, wall = timed(w.job, ctx)
        # reference samples worth about a tenth of the repetition, after it
        after = [reference_seconds() for _ in range(max(1, round(0.1 * wall / NOMINAL_REFERENCE_S)))]
        scales.append(NOMINAL_REFERENCE_S / statistics.median(before + after))
        before = after
        walls.append(wall)
        parts.append(w.parts(result, wall))
        same = same and w.fingerprint(result) == w.fingerprint(first)
    gate = w.check(ctx, first)
    gate["correct"] = gate["correct"] and same
    nominal = [wall * scale for wall, scale in zip(walls, scales)]
    wall = statistics.median(nominal)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "ops_per_s": {"value": w.ops(first) / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail = {
        "repetitions_identical": same,
        "setup_samples_s": setups,
        "wall_samples_s": walls,
        "host_scale_samples": scales,
        "workload_metrics": {
            key: {"value": statistics.median([p[key] * s for p, s in zip(parts, scales)]), "unit": "s"}
            for key in parts[0]
        },
    }
    return gate, 1 + len(walls), metrics, detail


def run_traced(w, seed: int, seconds: float):
    ctx = w.setup(seed)
    deadline = time.perf_counter() + seconds
    plain, plain_walls, traced_walls, layer_reps, count_reps = [], [], [], [], []
    identical, restored = True, True
    while not plain or time.perf_counter() + 0.5 * (plain_walls[-1] + traced_walls[-1]) < deadline:
        result, wall = timed(w.job, ctx)
        plain.append(result)
        plain_walls.append(wall)

        tracer, counts = Tracer(), Counts()
        instrument(tracer, counts)
        try:
            traced_ctx = w.setup(seed)
            traced, wall = timed(w.job, traced_ctx)
        finally:
            restored = tracer.restore() and restored
        traced_walls.append(wall)
        identical = identical and w.fingerprint(traced) == w.fingerprint(result)
        layer_reps.append(self_times(tracer.spans()))
        count_reps.append(counts.metrics())

    gate = w.check(ctx, plain[0])
    same = all(w.fingerprint(r) == w.fingerprint(plain[0]) for r in plain)
    counts_repeat = all(c == count_reps[0] for c in count_reps)
    calls_repeat = all(
        {k: v[0] for k, v in rep.items()} == {k: v[0] for k, v in layer_reps[0].items()}
        for rep in layer_reps
    )
    gate["correct"] = gate["correct"] and same and identical and restored
    gate["correct"] = gate["correct"] and counts_repeat and calls_repeat

    metrics = {}
    for span in SPAN_NAMES:
        calls = layer_reps[0].get(span, (0, 0.0))[0]
        metrics[f"{span}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{span}.self_s"] = {
            "value": statistics.median([rep.get(span, (0, 0.0))[1] for rep in layer_reps]),
            "unit": "s",
        }
    for count, (value, unit) in count_reps[0].items():
        metrics[count] = {"value": value, "unit": unit}
    metrics["bench.trace_overhead"] = {
        "value": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
        "unit": "ratio",
    }
    detail = {
        "traced_identical_to_untraced": identical,
        "attributes_restored": restored,
        "repetitions_identical": same,
        "counts_repeat": counts_repeat and calls_repeat,
        "wall_samples_s": plain_walls,
        "traced_wall_samples_s": traced_walls,
    }
    return gate, 2 * len(plain), metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "branchpde" / "__init__.py").is_file():
        print(f"no branchpde sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import branchpde

    if Path(branchpde.__file__).resolve().parent != SRC / "branchpde":
        print(f"imported branchpde from {branchpde.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be > 0", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    if args.trace:
        gate, repetitions, metrics, detail = run_traced(w, args.seed, args.seconds)
    else:
        gate, repetitions, metrics, detail = run_plain(args.workload, w, args.seed, args.seconds)
    attempted = gate.pop("attempted") * repetitions
    failed = gate.pop("failed") * repetitions
    correct = gate.pop("correct")
    detail.update(
        workload=args.workload,
        trace=args.trace,
        repetitions=repetitions,
        machine=machine(args.seed),
        gate=gate,
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
