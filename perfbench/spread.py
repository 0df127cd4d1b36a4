#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload family-sweep

Runs the end-to-end measurement (--trace 0) once for each seed in SEEDS.
For every metric, prints the median of its values over the seeds and the
spread: the distance between the first and third quartiles, as
statistics.quantiles(values, n=4) gives them, as a share of the median.
Compare each spread with the metric's bound in BENCHMARK.json.  Runs go
one after another, with --seconds taken from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values: dict = {}
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(config["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} cells failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                            for k, v in result["metrics"].items()), flush=True)
    for name, samples in values.items():
        median = statistics.median(samples)
        q1, _, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / median
        print(f"{name:12s} median {median:.6g}  spread {spread:.4f}  "
              f"bound {bounds[name]}  ({spread / bounds[name]:.2f} of it)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
