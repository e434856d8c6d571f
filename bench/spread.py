"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--seeds 10] [--trace 0|1] [--out FILE]

Runs bench/run.py once per workload of BENCHMARK.json and seed 1..N, one
after another, with the run length from BENCHMARK.json.  For each
end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound, and exits 1 when a run is incorrect or a spread exceeds
its bound.  --out writes every run's result and detail line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            result, detail = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "result": result, "detail": detail})
            ok = ok and result["correct"]
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        if args.seeds >= 2:
            for name in runs[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in runs]
                if statistics.median(values) == 0:
                    continue
                summary[name] = s = summarize(values)
                bound = bounds.get(name)
                flag = ""
                if bound is not None:
                    flag = f"bound {bound}  " + ("ok" if s["spread"] <= bound / 3 else "WIDE")
                    if s["spread"] > bound:
                        ok = False
                print(f"  {name:44s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  {flag}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
