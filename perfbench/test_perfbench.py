"""Tests of the benchmark itself, at reduced size.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from ergokit import core, families  # noqa: E402
from ergokit.errors import InfeasibilityError  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def reduced_result(workload: str, trace: int) -> dict:
    args = argparse.Namespace(workload=workload, seed=7, seconds=0.01, trace=trace)
    return run.measure(args, reduced=True)


def test_workload_names_match_config():
    assert [w["name"] for w in CONFIG["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run_emits_every_named_metric_with_its_unit(workload, trace, capsys):
    result = reduced_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    failures = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("FAILED")]
    assert result["correct"] and result["failed"] == 0 and not failures
    declared = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])


def _first_row(workload, label_prefix):
    # cells run in order, because a level cell uses its start cell's state
    for cell in workloads.build(workload, 7, reduced=True).cells:
        row = cell.run()
        if cell.label.startswith(label_prefix):
            assert cell.check(row) == []
            return cell, row
    raise AssertionError(f"no cell {label_prefix!r}")


@pytest.mark.parametrize("workload, label, key, delta", [
    ("family-sweep", "entangled/", "ergotropy", 1e-6),
    ("family-sweep", "separable/", "ergotropy", 1e-6),
    ("family-sweep", "dicke/", "ergotropy", -1e-6),
    ("family-sweep", "fixed-entropy/", "entropy", 1e-6),
    ("bias-steering", "rotate/", "achieved_bias", 1e-9),
    ("bias-steering", "invert/", "achieved_bias", 1e-9),
    ("bias-steering", "level/", "achieved_bias", -1e-9),
    ("small-systems", "random/", "ergotropy", 1e-6),
    ("small-systems", "random/", "entropy", 1e-6),
    ("small-systems", "beta-for-entropy/", "beta_prime", 1e-3),
])
def test_oracle_flags_a_perturbed_value(workload, label, key, delta):
    cell, row = _first_row(workload, label)
    perturbed = dict(row, **{key: row[key] + delta})
    assert cell.check(perturbed)


def test_oracle_flags_an_infeasible_sweep_row():
    cell, row = _first_row("family-sweep", "fixed-entropy/")
    (problem,) = cell.check(dict(row, status="infeasible", note="no shell weight"))
    assert "ROADMAP item 5" in problem


def test_family_reach_and_the_false_infeasible_it_exposes():
    # n = 2, beta = 0: the family reaches the maximally mixed state, ln 4,
    # but diagonal_state_at_entropy caps the target at ln C(2, 1)
    assert workloads.family_reach(2, 0.0) == pytest.approx(math.log(4.0), abs=1e-12)
    spec = core.SystemSpec.qubits(2, 0.0)
    row = workloads._entropy_state_run(spec, 1.0)
    (problem,) = workloads.check_entropy_state(row, spec, 1.0, math.log(4.0))
    assert "false infeasible" in problem and "ROADMAP item 5" in problem


@pytest.mark.parametrize("n", range(2, 9))
def test_answered_ranges_are_exactly_where_the_family_answers(n):
    # a target on either edge of an answered range gets a state; a target
    # just above one, and below the family's reach, is refused: the ROADMAP
    # item 5 defect.  Once item 5 is fixed the second half fails, and the
    # fixed-entropy draws can take the family's whole range.
    refused = 0
    for beta in (0.3, 0.9, 2.0):
        spec = core.SystemSpec.qubits(n, beta)
        ranges = workloads.answered_ranges(n, beta)
        assert ranges
        for low, top in ranges:
            for target in (low, top):
                state, _ = families.diagonal_state_at_entropy(spec, target)
                assert workloads._entropy_of(state.diagonal) == pytest.approx(target, abs=1e-9)
            above = top + 1e-6
            if above < workloads.family_reach(n, beta) and not any(
                    a <= above <= b for a, b in ranges):
                with pytest.raises(InfeasibilityError):
                    families.diagonal_state_at_entropy(spec, above)
                refused += 1
    assert refused


@pytest.mark.parametrize("workload", ["family-sweep", "small-systems"])
def test_each_run_reports_the_left_out_targets_it_refuses(workload):
    # the draws leave out the targets of the ROADMAP item 5 defect; each run
    # tries one per cell and reports the refusals, so the defect shows there
    work = workloads.build(workload, 7, reduced=True)
    count = len(work.left_out)
    assert count
    assert workloads.refused_note(work).startswith(
        f"ROADMAP item 5 defect: diagonal_state_at_entropy refused {count} of {count} ")


def test_family_reach_bounds_every_shell_on_a_grid():
    n, beta = 6, 0.7
    p = 1.0 / (1.0 + math.exp(beta))
    grid_max = 0.0
    for shell in range(1, n // 2 + 1):
        top = min(1.0, n * p / shell, n * (1.0 - p) / (n - shell))
        for g in [top * k / 2000 for k in range(2001)]:
            weights = [p - g * shell / n, 1.0 - p - g * (n - shell) / n]
            value = g * math.log(math.comb(n, shell)) - sum(
                w * math.log(w) for w in weights + [g] if w > 0.0)
            grid_max = max(grid_max, value)
    assert grid_max <= workloads.family_reach(n, beta) <= grid_max + 1e-6


def test_oracle_flags_a_failed_verify_check():
    cell, row = _first_row("small-systems", "verify/entanglement")
    assert cell.check(dict(row, failures=["entanglement/x: AssertionError"]))


def test_csv_digest_mismatch_is_a_failed_cell():
    workload = workloads.build("bias-steering", 7, reduced=True)
    first, second = run.run_pass(workload), run.run_pass(workload)
    assert first.digest == second.digest
    assert run.tally(workload, [first, second])[1] == 0
    second.digest = "0" * 64
    attempted, failed, problems = run.tally(workload, [first, second])
    assert attempted == 2 * len(workload.cells) and failed == 1
    assert "digest" in problems[0]


def test_a_cell_with_several_problems_counts_once():
    cell = workloads.Cell("two-problems", lambda: {"value": 1.0},
                          lambda row: ["first problem", "second problem"])
    work = workloads.Workload("one-cell", (cell,), None)
    result = run.run_pass(work)
    attempted, failed, problems = run.tally(work, [result])
    assert (attempted, failed, len(problems)) == (1, 1, 2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_self_times_sum_to_at_most_the_traced_wall(workload):
    package = run.load_package()
    work = workloads.build(workload, 7, reduced=True)
    tracer = tracing.Tracer()
    original = core.state_eigenvalues
    with tracer.installed(package):
        assert core.state_eigenvalues is not original
        result = run.run_pass(work, tracer)
    assert core.state_eigenvalues is original
    assert result.problems == []
    self_total = sum(s.self_s for s in tracer.stats.values())
    assert self_total <= result.busy_s
    assert self_total == pytest.approx(tracer.top_level_s, rel=1e-9, abs=1e-12)


def test_tracer_counts_repeat_solves_and_bytes():
    package = run.load_package()
    tracer = tracing.Tracer()
    spec = core.SystemSpec.qubits(3, 1.0)
    with tracer.installed(package), tracer.recording():
        state = package.families.entangled_pure_state(spec)
        package.core.von_neumann_entropy(state)
        package.passivity.ergotropy(state, package.core.build_hamiltonian(spec))
    eig = tracer.stats["core.state_eigenvalues"]
    assert eig.calls == 2 and eig.counters["repeat_calls"] == 1
    assert tracer.stats["core.DensityMatrix"].counters["bytes"] == 16 * 8 * 8
    assert tracer.child_calls[("core.von_neumann_entropy", "core.state_eigenvalues")] == 1


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "family-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
