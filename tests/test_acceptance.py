"""Acceptance suite: each numbered criterion at its stated tolerance.

The conftest hook prints one [PASS]/[FAIL] line per criterion at the end
of the run.  Criteria that a named `verify` check states read that check
from the session's one shared `run_suite("all")`.
"""

import math
import time

import numpy as np

from ergokit import (
    DensityMatrix,
    SystemSpec,
    build_hamiltonian,
    diagonal_state_at_entropy,
    dicke_thermal_mixture,
    entangled_pure_state,
    ergotropy,
    partial_trace_to,
    product_thermal_state,
    separable_optimal_state,
    separable_work_limit,
    state_eigenvalues,
    thermal_entropy,
    thermal_params,
    thermal_state,
    von_neumann_entropy,
)
from ergokit.figures import figure1_rows


def assert_passed(verify_all, *names):
    for name in names:
        result = verify_all.result(name)
        assert result.passed, f"{name}: {result.detail}"


def test_criterion_01_figure_reproduction():
    start = time.perf_counter()
    rows = figure1_rows(beta_e=1.0, n_max=20)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"figure reproduction took {elapsed:.2f} s"

    p = math.exp(-1.0) / (1.0 + math.exp(-1.0))
    # independent oracle: dense scan of the excited population, step 1e-6
    grid = np.arange(0.0, 0.5 + 1e-6, 1e-6)
    with np.errstate(all="ignore"):
        entropies = -grid * np.log(grid) - (1 - grid) * np.log(1 - grid)
    entropies[0] = 0.0
    local_entropy = -p * math.log(p) - (1 - p) * math.log(1 - p)
    for row in rows:
        assert abs(row.entangled_ratio - 1.0) <= 1e-10
        assert abs(row.separable_ratio - (1.0 - 1.0 / row.n)) <= 1e-10
        scanned = grid[int(np.argmin(np.abs(entropies - local_entropy / row.n)))]
        assert abs(row.entropy_bound_ratio - (1.0 - scanned / p)) <= 1e-5


def test_criterion_02_full_extraction_from_pure_state():
    start = time.perf_counter()
    for n in range(2, 11):
        for beta in (0.5, 1.0, 2.0):
            spec = SystemSpec.qubits(n, beta)
            report = ergotropy(entangled_pure_state(spec), build_hamiltonian(spec), spec)
            gap = abs(report.ergotropy - report.bound_total_energy)
            assert gap <= 1e-9, f"extraction short by {gap} at n={n}, beta={beta}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"dense extraction sweep took {elapsed:.2f} s"


def test_criterion_03_rotation_bias_law(verify_all):
    assert_passed(verify_all, "protocols/bias-law-grid")


def test_criterion_04_entropy_constrained_saturation(verify_all):
    assert_passed(verify_all, "protocols/entropy-saturation")


def test_criterion_05_witness_cross_check(verify_all):
    assert_passed(verify_all, "entanglement/witness-point-value",
                  "entanglement/witness-sign-agreement")


def test_criterion_06_inversion_exactness_and_residual(verify_all):
    assert_passed(verify_all, "protocols/inversion-formula-exact",
                  "protocols/inversion-residual-shrinks")


def test_criterion_07_fixed_entropy_diagonal_family():
    cells = {6: (1.0, 1.8, 2.6), 8: (1.0, 2.0, 3.0), 10: (1.0, 2.5, 4.0)}
    for n, totals in cells.items():
        spec = SystemSpec.qubits(n, 1.0)
        ham = build_hamiltonian(spec)
        tau = thermal_state(spec)
        energy = n * thermal_params(spec).mean_energy
        for total in totals:
            state, params = diagonal_state_at_entropy(spec, total)
            for k in range(1, n + 1):
                marginal = partial_trace_to(state, spec, k)
                assert float(np.abs(marginal.entries - tau.entries).max()) <= 1e-10
            assert abs(von_neumann_entropy(state) - total) <= 1e-8
            shell_size = math.comb(n, params.shell_excitations)
            rank = int((state.diagonal > 1e-14).sum())
            assert rank <= 2 + shell_size
            work = ergotropy(state, ham).ergotropy
            floor = energy - (params.shell_excitations + 1) * spec.energy_gap
            assert work > floor, f"work {work} not above floor {floor}"


def test_criterion_08_dicke_mixture_and_counting(verify_all):
    assert_passed(verify_all, "bounds/dicke-work-exact", "bounds/dicke-correction-monotone",
                  "bounds/energy-count-enumeration")
    # the rank needs its own n = 12 solve: no check computes it
    state = dicke_thermal_mixture(SystemSpec.qubits(12, 1.0))
    assert int((state_eigenvalues(state) > 1e-12).sum()) == 12 + 1


def test_criterion_09_convexity_and_mixture_properties(verify_all):
    assert_passed(verify_all, "passivity/ergotropy-convexity")
    # separable locally thermal mixtures t rho_sep + (1 - t) thermal product
    rng = np.random.default_rng(777)
    for k in range(200):
        spec = SystemSpec.qubits(int(rng.integers(2, 7)), float(rng.uniform(0.4, 2.0)))
        t = 1.0 if k % 40 == 0 else float(rng.uniform())
        mixed = DensityMatrix.from_diagonal(
            t * separable_optimal_state(spec).diagonal
            + (1 - t) * product_thermal_state(spec).diagonal
        )
        work = ergotropy(mixed, build_hamiltonian(spec)).ergotropy
        limit = separable_work_limit(spec)
        entropy, local_entropy = von_neumann_entropy(mixed), thermal_entropy(spec)
        assert work <= limit + 1e-9
        assert entropy >= local_entropy - 1e-12
        if t == 1.0:
            assert abs(work - limit) <= 1e-10
        else:
            assert work < limit
            assert entropy > local_entropy + 1e-12


def test_criterion_10_bath_bounds_and_verify_runtime(verify_all):
    assert_passed(verify_all, "bounds/bath-identity", "bounds/bath-dominates-entropy-bound")
    failures = [r for r in verify_all.results if not r.passed]
    assert not failures, f"verify-all failures: {[(r.name, r.detail) for r in failures]}"
    assert verify_all.seconds < 300.0, f"verify-all took {verify_all.seconds:.1f} s"
