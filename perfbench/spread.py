"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 10] [--out FILE]

Runs `run.py --trace 0` once per seed (1..N) for each workload and prints,
per metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
With --out it also runs each workload once with --trace 1 (seed 1) and
writes all the figures, with the environment, as JSON: that is how
perfbench/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(name, seed, seconds, trace) -> tuple[dict, dict]:
    """(environment, result line) of one run.py run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    return (json.loads(lines[0].removeprefix("# environment ")),
            json.loads(lines[-1]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        runs = []
        for seed in range(1, args.seeds + 1):
            environment, result = run(name, seed, spec["run_seconds"], 0)
            report.setdefault("environment", environment)
            runs.append(result)
        figures = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            figures[metric] = {"median": q2, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / q2, "bound": bound}
            print(f"{name:18s} {metric:14s} median {q2:11.5g}  "
                  f"q1 {q1:11.5g}  q3 {q3:11.5g}  spread {(q3 - q1) / q2:6.3f}"
                  f"  bound {bound}", flush=True)
        report["workloads"][name] = {
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in runs),
            "metrics": figures,
        }
        if args.out:
            _, traced = run(name, 1, spec["run_seconds"], 1)
            report["workloads"][name]["per_layer_seed1"] = {
                m: v["value"] for m, v in traced["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
