#!/usr/bin/env python3
"""One-off n = 12 timings, to set beside the baseline in ROADMAP.md.

    python3 perfbench/baseline.py

The benchmark's workloads stop at n = 11 so that each run can repeat its
passes; this script measures the n = 12 (dim 4096) figures ROADMAP.md
quotes, each as the median of REPEATS calls, and the peak RSS of one
separable sweep cell in a fresh interpreter.  It checks nothing and is
not part of BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import run

N = 12
REPEATS = 3

RSS_PROBE = """
import sys
sys.path.insert(0, {here!r})
import run
run.load_package()
from ergokit import cli, core, families
{body}
print(run.peak_rss_mb())
"""


def timed(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probe_peak_rss_mb(body: str) -> float:
    code = RSS_PROBE.format(here=str(run.HERE), body=body)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=300)
    return float(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    package = run.load_package()
    core, families, protocols = package.core, package.families, package.protocols
    spec = core.SystemSpec.qubits(N, 1.0)
    entangled = families.entangled_pure_state(spec)
    product = families.product_thermal_state(spec, 1.0)
    rotations = protocols.pair_rotation_unitary(spec, 0.3)
    one_rotation = core.StructuredUnitary(rotations=rotations.rotations[:1], dim=spec.dim)
    results = {
        "n": N,
        "env": run.environment(),
        "state_eigenvalues_entangled_s": timed(
            lambda: core.state_eigenvalues(entangled)),
        "density_matrix_construction_s": timed(
            lambda: core.DensityMatrix(product.entries)),
        "apply_unitary_one_rotation_s": timed(
            lambda: core.apply_unitary(product, one_rotation)),
        "apply_unitary_pair_rotations_s": timed(
            lambda: core.apply_unitary(product, rotations)),
        "pair_rotation_count": len(rotations.rotations),
        "separable_state_peak_rss_mb": probe_peak_rss_mb(
            f"families.separable_optimal_state(core.SystemSpec.qubits({N}, 1.0))"),
        "separable_sweep_cell_peak_rss_mb": probe_peak_rss_mb(
            f"cli.sweep_rows(cli.SweepConfig(family='separable', n_values=({N},)))"),
    }
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
