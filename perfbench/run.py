#!/usr/bin/env python3
"""ergokit benchmark: one closed-loop client driving the library in-process.

Run from the repository root:

    python3 perfbench/run.py --workload family-sweep --seed 1 --seconds 20 --trace 0

Each cell starts when the previous one returns, as in a user's `sweep` or
`verify` run.  A pass runs the workload's fixed cell set once; passes
repeat until --seconds have elapsed, and times are built from each
cell's fastest latency over the passes.
Every row is checked against an oracle; a cell that raises or fails its
oracle is a failed cell, and so is a pass whose rendered CSV differs from
the first pass's.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics: calls, self time and
counters per library function, per pass.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("family-sweep", "bias-steering", "small-systems")
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

# One BLAS thread: on a small shared machine two threads of dense LAPACK
# calls contend with each other and with neighbours, small calls pay for
# thread hand-off, and times spread far more from run to run.  main() sets
# these before NumPy loads; the setup probes inherit them.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cell_ms_p50": "ms",
    "cell_ms_p99": "ms",
}

# function -> extra counters, besides calls and self_s
TRACED_FUNCTIONS = {
    "core.DensityMatrix": {"bytes": "B"},
    "core.state_eigenvalues": {"repeat_calls": "count", "repeat_s": "s"},
    "core.apply_unitary": {"rotations": "count"},
    "core.partial_trace_to": {},
    "protocols.pair_rotation_unitary": {},
    "protocols.level_inversion_unitary": {},
    "protocols.prepare_locally_thermal": {},
    "protocols.inversion_sequence_to_bias": {},
    "families.entangled_pure_state": {},
    "families.separable_optimal_state": {},
    "families.dicke_thermal_mixture": {},
    "families.product_thermal_state": {},
    "families.diagonal_state_at_entropy": {},
    "passivity.ergotropy": {},
    "passivity.passive_state": {},
    "passivity.is_passive": {},
    "passivity.beta_for_entropy": {"iterations": "count/call"},
    "analysis.min_pt_eigenvalue": {},
    "analysis.mutual_information_multipartite": {},
    "figures.figure1_rows": {},
    "cli.sweep_rows": {},
    "reporting.emit_csv": {},
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package():
    """Import ergokit from this checkout's src/, never from site-packages."""
    init = SRC / "ergokit" / "__init__.py"
    if not init.is_file():
        raise BenchmarkError(f"ergokit sources not found at {init}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    package = importlib.import_module("ergokit")
    if Path(package.__file__).resolve() != init.resolve():
        raise BenchmarkError(f"imported ergokit from {package.__file__}, not {init}")
    return package


def setup_probe(workload: str, seed: int) -> float:
    """Import the package and generate the workload's inputs; return the seconds."""
    start = time.perf_counter()
    load_package()
    import workloads

    workloads.build(workload, seed)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    """Run setup_probe in a fresh interpreter, as a user's first call pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class PassResult:
    def __init__(self):
        self.busy_s = 0.0
        self.render_s = 0.0
        self.cell_ms = []
        self.failed = 0
        self.problems = []
        self.rows = []
        self.digest = None


def run_pass(workload, tracer=None) -> PassResult:
    """Run every cell once, in order; time the library calls, not the oracles."""
    from ergokit import reporting

    result = PassResult()
    for cell in workload.cells:
        row = None
        start = time.perf_counter()
        try:
            if tracer is None:
                row = cell.run()
            else:
                with tracer.recording():
                    row = cell.run()
        except Exception as exc:  # noqa: BLE001 - a crashing cell is a failed cell
            problems = [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        result.busy_s += elapsed
        result.cell_ms.append(1e3 * elapsed)
        if row is not None:
            try:
                problems = cell.check(row)
            except Exception as exc:  # noqa: BLE001 - a row the oracle cannot read is wrong
                problems = [f"oracle raised {type(exc).__name__}: {exc}"]
            result.rows.append({k: v for k, v in row.items() if not k.startswith("_")})
        result.failed += bool(problems)
        result.problems.extend(f"{cell.label}: {p}" for p in problems)
    if workload.columns is not None:
        start = time.perf_counter()
        if tracer is None:
            text = reporting.emit_csv(workload.columns, result.rows)
        else:
            with tracer.recording():
                text = reporting.emit_csv(workload.columns, result.rows)
        result.render_s = time.perf_counter() - start
        result.busy_s += result.render_s
        result.digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return result


def tally(workload, passes) -> tuple:
    """(attempted, failed, problems): cells over all passes, plus CSV mismatches.

    A cell with several problems counts once in `failed`; every problem is
    still listed.
    """
    attempted = len(workload.cells) * len(passes)
    problems = [p for res in passes for p in res.problems]
    failed = sum(res.failed for res in passes)
    first = passes[0].digest
    for index, res in enumerate(passes[1:], start=2):
        if res.digest != first:
            failed += 1
            problems.append(f"pass {index}: CSV digest {res.digest} != first pass {first}")
    return attempted, failed, problems


def fastest_cells_ms(passes) -> list:
    """Each cell's fastest latency over the passes, in ms.

    The machine this was tuned on changes speed by 15-50 % over seconds to
    minutes, as other tenants come and go.  Contention only adds time, so
    the fastest of a cell's repeats tracks the program's own cost (as
    timeit's minimum does).  Over 8 runs of small-systems, the IQR/median
    of p50 was 0.06 with per-cell minima, 0.44 with per-cell medians and
    0.30 with pooled samples.
    """
    return [min(samples) for samples in zip(*(res.cell_ms for res in passes))]


def pass_wall_s(passes) -> float:
    """A pass with every cell and the CSV rendering at their fastest, in s."""
    render = min(res.render_s for res in passes)
    return 1e-3 * sum(fastest_cells_ms(passes)) + render


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB.

    VmHWM belongs to the process's own address space.  ru_maxrss does not:
    Linux carries the parent's high-water mark into the child across fork
    and exec, so a large parent process would show through it.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError("no VmHWM line in /proc/self/status")


def quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer, traced_passes: int, check_seconds: dict) -> dict:
    """Per-pass calls, self time and counters of every traced function."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value / traced_passes, "unit": unit}

    for name, counters in TRACED_FUNCTIONS.items():
        stats = tracer.stats.get(name)
        calls = stats.calls if stats else 0
        put(f"{name}.calls", calls, "count")
        put(f"{name}.self_s", stats.self_s if stats else 0.0, "s")
        for counter, unit in counters.items():
            if counter == "iterations":
                children = tracer.child_calls.get((name, "passivity.thermal_params"), 0)
                value = children / calls if calls else 0.0
                metrics[f"{name}.{counter}"] = {"value": value, "unit": unit}
            else:
                put(f"{name}.{counter}", stats.counters.get(counter, 0.0) if stats else 0.0,
                    unit)
    for name in verify_check_names():
        samples = check_seconds.get(name, [])
        value = statistics.median(samples) if samples else 0.0
        metrics[f"verify.{name.replace('/', '.')}.s"] = {"value": value, "unit": "s"}
    return metrics


def verify_check_names() -> list:
    import workloads
    from ergokit import verify

    return [f"{suite}/{name}" for suite in workloads.VERIFY_SUITES
            for name, _ in verify.SUITES[suite]]


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def blas_threads():
    """OpenBLAS's own thread count, when NumPy ships the scipy-openblas build."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(**run_fields) -> dict:
    """Python, NumPy and BLAS versions, BLAS threads and CPUs, plus run_fields."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **run_fields,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and not (args.seconds is not None and args.seconds > 0):
        parser.error("--seconds must be given and positive")
    return args


def measure(args, reduced: bool = False) -> dict:
    """Run the benchmark; return the result object and print the human report.

    reduced=True runs the workload at test size (see workloads.build).
    """
    package = load_package()
    import tracing
    import workloads

    workload = workloads.build(args.workload, args.seed, reduced)
    print("env: " + json.dumps(environment(workload=args.workload, seed=args.seed,
                                           seconds=args.seconds, trace=args.trace)))
    for note in workload.notes + (workloads.refused_note(workload),):
        if note:
            print("note: " + note)
    # one unmeasured pass first: LAPACK workspaces, first-touch pages and
    # the CPU clock settle during it; its cells still count and are checked
    warmup = run_pass(workload)
    deadline = time.perf_counter() + args.seconds
    untraced, traced, setup_samples = [], [], []
    tracer = tracing.Tracer() if args.trace else None

    def probe_setup(until: int):
        # the set-up probes run between passes, spread over the run, so
        # that one slow stretch of the machine does not hold all of them
        while tracer is None and len(setup_samples) < until:
            setup_samples.append(measure_setup(args.workload, args.seed))

    while True:
        # traced runs alternate which side goes first, so warm-up hits both
        sides = (False,) if tracer is None else ((False, True), (True, False))[len(traced) % 2]
        for traced_side in sides:
            if traced_side:
                with tracer.installed(package):
                    traced.append(run_pass(workload, tracer))
            else:
                untraced.append(run_pass(workload))
        left = max(0.0, deadline - time.perf_counter())
        probe_setup(math.ceil(SETUP_PROBES * (1.0 - left / args.seconds)))
        if not left:
            break
    probe_setup(SETUP_PROBES)
    attempted, failed, problems = tally(workload, [warmup] + untraced + traced)
    # the cells are the same every pass, so most problems repeat in each
    for problem, count in collections.Counter(problems).items():
        print(f"FAILED in {count} of {1 + len(untraced) + len(traced)} passes: {problem}")
    cell_ms = fastest_cells_ms(untraced)
    wall = pass_wall_s(untraced)
    print(f"passes: 1 warm-up, {len(untraced)} untraced, {len(traced)} traced; "
          f"{len(workload.cells)} cells per pass; cell latency percentiles over "
          f"{len(cell_ms)} per-cell minima")
    print("untraced pass walls (s): " + " ".join(f"{res.busy_s:.3f}" for res in untraced))
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    if tracer is None:
        print("setup probes (s): " + " ".join(f"{t:.4f}" for t in setup_samples))
        values = {
            # contention only adds time, as for the cells (fastest_cells_ms)
            "setup_s": min(setup_samples),
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb(),
            "cell_ms_p50": quantile(cell_ms, 50),
            "cell_ms_p99": quantile(cell_ms, 99),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        check_seconds = {}
        for res in untraced:
            for row in res.rows:
                for name, seconds in row.get("check_seconds", {}).items():
                    check_seconds.setdefault(name, []).append(seconds)
        metrics = layer_metrics(tracer, len(traced), check_seconds)
        traced_wall = pass_wall_s(traced)
        metrics["trace.untraced_wall_s"] = {"value": wall, "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        report_spans(tracer, len(traced))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report_spans(tracer, traced_passes: int, top: int = 15):
    """Print the functions with the largest self time, listed in TRACED_FUNCTIONS or not."""
    total = sum(s.self_s for s in tracer.stats.values()) or 1.0
    ranked = sorted(tracer.stats.items(), key=lambda kv: kv[1].self_s, reverse=True)
    print("largest self times per traced pass (share of all traced self time):")
    for name, stats in ranked[:top]:
        print(f"  {name:45s} {stats.self_s / traced_passes:10.4f} s "
              f"{100.0 * stats.self_s / total:5.1f}%  {stats.calls // traced_passes} calls")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    os.environ.update(BLAS_ENV)
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        result = measure(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
