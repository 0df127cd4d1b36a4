"""Named invariant suites, runnable from the CLI at desk scale.

Each check exercises one analytic claim end to end and raises
AssertionError with a diagnostic on violation.  Randomized checks draw
from a generator seeded by the seed and the check's place in the SUITES
registry, whichever suite runs it, so reports are reproducible, a check
draws the same states alone as under `all`, and the seed can be varied
from the command line.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import (
    Bipartition,
    bath_extractable_work,
    count_global_energies,
    dicke_mixture_work_formula,
    entanglement_verdict,
    free_energy,
    min_pt_eigenvalue,
    mutual_information_multipartite,
    npt_witness_half_split,
)
from .core import (
    DensityMatrix,
    SystemSpec,
    _integer,
    _marginals,
    apply_unitary,
    build_hamiltonian,
    von_neumann_entropy,
)
from .errors import DomainError
from .families import (
    dicke_thermal_mixture,
    diagonal_state_at_entropy,
    entangled_pure_state,
    product_thermal_state,
    separable_optimal_state,
)
from .figures import figure1_rows
from .passivity import (
    entropy_constrained_bound,
    ergotropy,
    is_passive,
    separable_work_limit,
    thermal_entropy,
    thermal_params,
    thermal_state,
)
from .protocols import (
    bias_after_inversion,
    inversion_sequence_to_bias,
    level_inversion_unitary,
    measure_bias,
    pair_rotation_unitary,
    prepare_locally_thermal,
)

DEFAULT_SEED = 20240817

ALPHA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# random-state helpers
# ---------------------------------------------------------------------------

def random_density_matrix(rng, dim: int) -> DensityMatrix:
    return DensityMatrix(_random_density_array(rng, dim))


def _random_density_array(rng, dim: int) -> np.ndarray:
    """G G^dagger / its trace, G with standard normal real then imaginary parts."""
    g = np.empty((dim, dim), dtype=complex)
    g.real = rng.standard_normal((dim, dim))
    g.imag = rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    mat /= mat.trace()
    return mat


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# passivity suite
# ---------------------------------------------------------------------------

def check_thermal_products_passive(rng):
    for n in (1, 2, 3):
        for beta in (0.5, 1.0, 2.0):
            spec = SystemSpec.qubits(n, beta)
            state = product_thermal_state(spec)
            assert is_passive(state, spec), f"thermal product not passive at n={n}"
            work = ergotropy(state, spec).ergotropy
            assert abs(work) <= 1e-10, f"thermal product stores work {work}"
    spec = SystemSpec(n=2, d=3, local_energies=(0.0, 1.0, 2.3), beta=1.0)
    assert is_passive(product_thermal_state(spec), spec)


def _permutation_table(m: int) -> np.ndarray:
    """Every permutation of range(m) as a row, in itertools.permutations order."""
    # built in int8, which a table of m! rows never outgrows, then widened
    table = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, m + 1):
        # lexicographic: each leading value in turn, then the smaller table
        # relabelled onto the values left over
        first = np.repeat(np.arange(size, dtype=np.int8), len(table))[:, None]
        rest = np.tile(table, (size, 1))
        table = np.hstack([first, rest + (rest >= first)])
    return table.astype(int)


def check_permutation_oracle(rng):
    cases = [
        SystemSpec.qubits(2, 0.7),
        SystemSpec.qubits(3, 1.0),
        SystemSpec(n=1, d=5, local_energies=(0.0, 0.3, 1.0, 1.0, 2.2), beta=1.0),
    ]
    for spec in cases:
        ham = build_hamiltonian(spec)
        states = [product_thermal_state(spec).diagonal]
        draws = 3 if spec.dim == 8 else 10
        states.extend(rng.dirichlet(np.ones(spec.dim)) for _ in range(draws))
        perms = _permutation_table(spec.dim)
        for pops in states:
            pops = np.asarray(pops, dtype=float)
            state = DensityMatrix.from_diagonal(pops)
            passive = ergotropy(state, ham).passive_energy
            oracle = float((pops[perms] @ ham).min())
            assert abs(passive - oracle) <= 1e-12, (
                f"passive energy {passive} disagrees with exhaustive minimum {oracle}"
            )


def check_unitary_invariance(rng):
    # the passive energy depends only on the spectrum, so it is the unitary
    # invariant; ergotropy itself shifts by exactly the energy change
    dims = {
        4: SystemSpec.qubits(2, 1.0),
        9: SystemSpec(n=2, d=3, local_energies=(0.0, 1.0, 2.0), beta=1.0),
        16: SystemSpec.qubits(4, 1.0),
    }
    for dim, spec in dims.items():
        ham = build_hamiltonian(spec)
        for _ in range(8):
            rho = random_density_matrix(rng, dim)
            rotated = apply_unitary(rho, random_unitary(rng, dim))
            before = ergotropy(rho, ham)
            after = ergotropy(rotated, ham)
            gap = abs(after.passive_energy - before.passive_energy)
            assert gap <= 1e-9, f"passive energy moved by {gap} under a unitary"
            shift = abs((after.ergotropy - before.ergotropy)
                        - (after.initial_energy - before.initial_energy))
            assert shift <= 1e-9, f"work did not track the energy change: {shift}"


def check_ergotropy_convexity(rng):
    # W(t rho1 + (1-t) rho2) <= t W(rho1) + (1-t) W(rho2) for any two states:
    # W(rho) = Tr(rho H) - min_U Tr(U rho U^dag H), and the passive energy, a
    # minimum of functions linear in rho, is concave, so no energies need match
    specs = [
        SystemSpec.qubits(2, 1.0),
        SystemSpec.qubits(3, 1.0),
        SystemSpec.qubits(4, 1.0),
        SystemSpec(n=2, d=3, local_energies=(0.0, 1.0, 1.6), beta=0.8),
        SystemSpec(n=2, d=4, local_energies=(0.0, 0.5, 1.1, 2.0), beta=1.2),
    ]
    hams = [build_hamiltonian(s) for s in specs]
    worst = -math.inf
    for k in range(500):
        spec, ham = (specs[k % len(specs)], hams[k % len(specs)])
        arr1, arr2 = (_random_density_array(rng, spec.dim) for _ in range(2))
        t = float(rng.uniform())
        mixed = DensityMatrix(t * arr1 + (1 - t) * arr2)
        lhs = ergotropy(mixed, ham).ergotropy
        rhs = (t * ergotropy(DensityMatrix(arr1), ham).ergotropy
               + (1 - t) * ergotropy(DensityMatrix(arr2), ham).ergotropy)
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-9, f"convexity violated by {worst}"


def check_separable_work_exact(rng):
    for n in range(1, 11):
        spec = SystemSpec.qubits(n, 1.0)
        state = product_thermal_state(spec) if n == 1 else separable_optimal_state(spec)
        gap = abs(ergotropy(state, spec).ergotropy - separable_work_limit(spec))
        assert gap <= 1e-10, f"qubit separable optimum off by {gap} at n={n}"
    for n in range(2, 8):
        spec = SystemSpec(n=n, d=3, local_energies=(0.0, 1.0, 1.7), beta=0.9)
        gap = abs(ergotropy(separable_optimal_state(spec), spec).ergotropy
                  - separable_work_limit(spec))
        assert gap <= 1e-10, f"qutrit separable optimum off by {gap} at n={n}"


def check_total_energy_bound(rng):
    for n, family_entropy in ((2, 0.65), (4, 1.2), (6, 1.2)):
        spec = SystemSpec.qubits(n, 1.0)
        tau = thermal_state(spec)
        bound = n * thermal_params(spec).mean_energy
        states = [
            entangled_pure_state(spec),
            separable_optimal_state(spec),
            dicke_thermal_mixture(spec),
            prepare_locally_thermal(spec, 2.0, thermal_params(spec).bias).state,
            diagonal_state_at_entropy(spec, family_entropy)[0],
        ]
        for state in states:
            marginals = _marginals(state, spec, range(1, n + 1))
            defect = float(np.abs(marginals - tau.entries).max())
            assert defect <= 1e-10, f"marginal deviates from thermal by {defect}"
            work = ergotropy(state, spec).ergotropy
            assert work <= bound + 1e-9, f"work {work} beats the bound {bound}"


# ---------------------------------------------------------------------------
# protocols suite
# ---------------------------------------------------------------------------

def check_rotation_structure(rng):
    for n in (3, 5, 7):
        spec = SystemSpec.qubits(n, 1.0)
        unitary = pair_rotation_unitary(spec, 0.3)
        assert len(unitary.rotations) == 2 ** (n - 1)
    spec = SystemSpec.qubits(2, 1.0)
    assert pair_rotation_unitary(spec, 0.3).rotations == ((0, 3, 0.3),)
    spec = SystemSpec.qubits(4, 1.0)
    unitary = pair_rotation_unitary(spec, 0.3)
    assert len(unitary.rotations) == (16 - math.comb(4, 2)) // 2
    touched = {i for a, b, _ in unitary.rotations for i in (a, b)}
    half_shell = {i for i in range(16) if bin(i).count("1") == 2}
    assert touched.isdisjoint(half_shell), "half-weight shell must stay untouched"
    for n in (2, 3, 4, 5):
        spec = SystemSpec.qubits(n, 1.0)
        mat = pair_rotation_unitary(spec, 0.777).materialize()
        defect = float(np.abs(mat @ mat.conj().T - np.eye(spec.dim)).max())
        assert defect <= 1e-12, f"materialized rotation not unitary: {defect}"


def check_bias_law_grid(rng):
    beta_prime = 1.0
    for n in range(2, 9):
        spec = SystemSpec.qubits(n, 1.0)
        bias_prime = thermal_params(spec, beta_prime).bias
        start = product_thermal_state(spec, beta_prime)
        for alpha in ALPHA_GRID:
            state = apply_unitary(start, pair_rotation_unitary(spec, alpha))
            expected = math.cos(2 * alpha) * bias_prime
            marginals = _marginals(state, spec, range(1, n + 1))
            biases = marginals[:, 0, 0].real - marginals[:, 1, 1].real
            gap = float(np.abs(biases - expected).max())
            assert gap <= 1e-12, f"bias law off by {gap} at n={n}, alpha={alpha}"
            defect = float(np.abs(marginals - marginals[0]).max())
            assert defect <= 1e-12, f"marginals differ by {defect}"


def check_entropy_saturation(rng):
    beta_prime = 2.0
    for n in range(1, 9):
        spec = SystemSpec.qubits(n, 1.0)
        result = prepare_locally_thermal(spec, beta_prime, thermal_params(spec).bias)
        total_entropy = n * thermal_entropy(spec, beta_prime)
        assert abs(von_neumann_entropy(result.state) - total_entropy) <= 1e-9
        reference = np.sort(product_thermal_state(spec, beta_prime).diagonal)
        spectrum = np.sort(np.linalg.eigvalsh(result.state.entries))
        assert float(np.abs(spectrum - reference).max()) <= 1e-12
        work = ergotropy(result.state, spec).ergotropy
        bound = entropy_constrained_bound(spec, total_entropy)
        assert abs(work - bound) <= 1e-9, (
            f"saturation off by {work - bound} at n={n}"
        )


def check_inversion_formula_exact(rng):
    for beta_prime in (1.0, math.log(3.0)):
        for n in range(2, 13):
            spec = SystemSpec.qubits(n, 1.0)
            excited = thermal_params(spec, beta_prime).populations[1]
            start = product_thermal_state(spec, beta_prime)
            for level in range(0, (n + 1) // 2):
                predicted = bias_after_inversion(spec, excited, level)
                swapped = apply_unitary(start, level_inversion_unitary(spec, level))
                measured = measure_bias(swapped, spec)
                gap = abs(predicted - measured)
                assert gap <= 1e-12, (
                    f"inversion formula off by {gap} at n={n}, level={level}"
                )


def check_inversion_residual_shrinks(rng):
    residuals = {}
    for n in (8, 12):
        spec = SystemSpec.qubits(n, 1.0)
        bias_prime = thermal_params(spec, 1.0).bias
        result = inversion_sequence_to_bias(spec, 1.0, -0.9 * bias_prime)
        residuals[n] = result.residual
        trivial = inversion_sequence_to_bias(spec, 1.0, bias_prime)
        assert trivial.levels == () and trivial.residual <= 1e-12
    assert residuals[12] < residuals[8], (
        f"residual did not shrink: {residuals[8]} -> {residuals[12]}"
    )


# ---------------------------------------------------------------------------
# entanglement suite
# ---------------------------------------------------------------------------

def check_witness_point_value(rng):
    spec = SystemSpec.qubits(2, 1.0)
    value = npt_witness_half_split(spec, 1.0, math.pi / 4)
    assert abs(value - 0.12890583442050263) <= 1e-9, f"witness value {value}"
    state = apply_unitary(product_thermal_state(spec, 1.0),
                          pair_rotation_unitary(spec, math.pi / 4))
    verdict = entanglement_verdict(state, spec, Bipartition.half_split(2), value)
    assert verdict.verdict == verdict.ENTANGLED, "NPT not confirmed at the point case"


def check_witness_sign_agreement(rng):
    for n in (2, 4, 6):
        spec = SystemSpec.qubits(n, 1.0)
        split = Bipartition.half_split(n)
        for beta_prime in (0.5, 1.0, 2.0):
            start = product_thermal_state(spec, beta_prime)
            for alpha in np.linspace(0.0, math.pi / 2, 9):
                value = npt_witness_half_split(spec, beta_prime, float(alpha))
                if value > 1e-9:
                    state = apply_unitary(start, pair_rotation_unitary(spec, float(alpha)))
                    smallest = min_pt_eigenvalue(state, spec, split)
                    assert smallest < -1e-10, (
                        f"witness {value} positive but min PT eigenvalue {smallest}"
                    )


def check_separable_mixtures_ppt(rng):
    for n in range(2, 7):
        spec = SystemSpec.qubits(n, 1.0)
        sep = separable_optimal_state(spec).diagonal
        product = product_thermal_state(spec).diagonal
        splits = [
            Bipartition(side_a=frozenset({1} | set(extra)), n=n)
            for size in range(0, n - 1)
            for extra in itertools.combinations(range(2, n + 1), size)
        ]
        for t in (0.0, 0.3, 0.7, 1.0):
            state = DensityMatrix.from_diagonal(t * sep + (1 - t) * product)
            for split in splits:
                smallest = min_pt_eigenvalue(state, spec, split)
                assert smallest >= -1e-10, (
                    f"separable mixture NPT at n={n}, t={t}: {smallest}"
                )
        # the diagonal states above have no coherence for the partial
        # transpose to move; products of rotated qubits do
        local = np.diag(thermal_params(spec).populations)
        t = float(rng.uniform())
        state = DensityMatrix(t * _rotated_product(rng, n, local)
                              + (1 - t) * _rotated_product(rng, n, local))
        for split in {Bipartition.half_split(n), Bipartition(side_a=frozenset({1}), n=n)}:
            smallest = min_pt_eigenvalue(state, spec, split)
            assert smallest >= -1e-10, (
                f"rotated separable mixture NPT at n={n}, split {sorted(split.side_a)}: {smallest}"
            )


def _rotated_product(rng, n: int, local: np.ndarray) -> np.ndarray:
    """Dense product of n copies of the qubit state local, each rotated by a drawn angle."""
    angles = rng.uniform(0.0, math.pi, n)
    c, s = np.cos(angles), np.sin(angles)
    rotations = np.array([[c, -s], [s, c]]).transpose(2, 0, 1)
    return functools.reduce(np.kron, rotations @ local @ rotations.transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# bounds suite
# ---------------------------------------------------------------------------

def check_bath_identity(rng):
    for n in (2, 3, 4):
        spec = SystemSpec.qubits(n, 1.0)
        product = product_thermal_state(spec)
        reference = free_energy(product, spec, spec.beta)
        z = thermal_params(spec).partition_function
        assert abs(reference - (-n * math.log(z) / spec.beta)) <= 1e-9
        states = [
            entangled_pure_state(spec),
            separable_optimal_state(spec),
            dicke_thermal_mixture(spec),
            prepare_locally_thermal(spec, 2.0, thermal_params(spec).bias).state,
        ]
        if n == 4:
            states.extend(diagonal_state_at_entropy(spec, total)[0] for total in (1.0, 1.2))
        for state in states:
            entropy = von_neumann_entropy(state)
            lhs = bath_extractable_work(spec, entropy)
            rhs = free_energy(state, spec, spec.beta) - reference
            assert abs(lhs - rhs) <= 1e-9, f"bath identity off by {lhs - rhs}"
            gain = mutual_information_multipartite(state, spec) / spec.beta
            assert abs(lhs - gain) <= 1e-9


def check_bath_dominates_entropy_bound(rng):
    spec = SystemSpec.qubits(4, 1.0)
    top = spec.n * thermal_entropy(spec)
    for i, total in enumerate(np.linspace(0.0, top, 11)):
        bath = bath_extractable_work(spec, float(total))
        isolated = entropy_constrained_bound(spec, float(total))
        assert bath >= isolated - 1e-12, f"bath bound below isolated bound at S={total}"
        if 0 < i < 10:
            assert bath - isolated > 1e-9, f"dominance not strict at S={total}"


def check_figure_curves_monotone(rng):
    rows = figure1_rows(1.0, 20)
    for row in rows:
        assert row.separable_ratio <= row.entropy_bound_ratio + 1e-9
        assert row.entropy_bound_ratio <= row.entangled_ratio + 1e-9
    for prev, cur in zip(rows, rows[1:]):
        assert cur.separable_ratio > prev.separable_ratio
        assert cur.entropy_bound_ratio > prev.entropy_bound_ratio


def check_dicke_work_exact(rng):
    for n in range(1, 13):
        spec = SystemSpec.qubits(n, 1.0)
        states = [dicke_thermal_mixture(spec)] + ([thermal_state(spec)] if n == 1 else [])
        for state in states:
            gap = abs(ergotropy(state, spec).ergotropy - dicke_mixture_work_formula(spec))
            assert gap <= 1e-10, f"Dicke mixture work off by {gap} at n={n}"


def check_energy_count_enumeration(rng):
    for d in range(1, 5):
        for n in range(1, 7):
            distinct = {
                tuple(sorted(digits))
                for digits in itertools.product(range(d), repeat=n)
            }
            assert count_global_energies(n, d) == len(distinct)


def check_dicke_correction_monotone(rng):
    spec1 = SystemSpec.qubits(1, 1.0)
    energy = spec1.energy_gap
    corrections = []
    for n in range(1, 15):
        spec = SystemSpec.qubits(n, 1.0)
        correction = (n * thermal_params(spec).mean_energy
                      - dicke_mixture_work_formula(spec))
        assert correction < energy, f"correction {correction} not below E at n={n}"
        corrections.append(correction)
    assert all(b > a for a, b in zip(corrections, corrections[1:])), (
        "correction must grow toward E with n"
    )


# ---------------------------------------------------------------------------
# suite registry and runner
# ---------------------------------------------------------------------------

SUITES: dict[str, tuple] = {
    "passivity": (
        ("thermal-products-passive", check_thermal_products_passive),
        ("permutation-oracle", check_permutation_oracle),
        ("unitary-invariance", check_unitary_invariance),
        ("ergotropy-convexity", check_ergotropy_convexity),
        ("separable-work-exact", check_separable_work_exact),
        ("total-energy-bound", check_total_energy_bound),
    ),
    "protocols": (
        ("rotation-structure", check_rotation_structure),
        ("bias-law-grid", check_bias_law_grid),
        ("entropy-saturation", check_entropy_saturation),
        ("inversion-formula-exact", check_inversion_formula_exact),
        ("inversion-residual-shrinks", check_inversion_residual_shrinks),
    ),
    "entanglement": (
        ("witness-point-value", check_witness_point_value),
        ("witness-sign-agreement", check_witness_sign_agreement),
        ("separable-mixtures-ppt", check_separable_mixtures_ppt),
    ),
    "bounds": (
        ("bath-identity", check_bath_identity),
        ("bath-dominates-entropy-bound", check_bath_dominates_entropy_bound),
        ("figure-curves-monotone", check_figure_curves_monotone),
        ("dicke-work-exact", check_dicke_work_exact),
        ("energy-count-enumeration", check_energy_count_enumeration),
        ("dicke-correction-monotone", check_dicke_correction_monotone),
    ),
}


def run_suite(suite: str = "all", seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the checks of one suite, or of all; a check's index is its place in SUITES."""
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    if _integer(seed, "seed") < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    checks = [(group, name, fn) for group in SUITES for name, fn in SUITES[group]]
    results = []
    for index, (group, name, fn) in enumerate(checks):
        if suite not in ("all", group):
            continue
        rng = np.random.default_rng([seed, index])
        start = time.perf_counter()
        try:
            fn(rng)
            passed, detail = True, ""
        except Exception as exc:  # noqa: BLE001 - report any check failure
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(
            name=f"{group}/{name}",
            passed=passed,
            detail=detail,
            seconds=time.perf_counter() - start,
        ))
    return results


def format_report(results: list[CheckResult], seed: int) -> str:
    lines = [f"seed = {seed}"]
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        line = f"[{mark}] {res.name} ({res.seconds:.2f} s)"
        if res.detail:
            line += f"  {res.detail}"
        lines.append(line)
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results)} checks, {len(results) - failed} passed, {failed} failed")
    return "\n".join(lines)


def format_json(results: list[CheckResult], seed: int) -> str:
    """The report as one JSON object, with the NumPy and BLAS builds that ran it."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return json.dumps({
        "seed": seed,
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "checks": [asdict(res) for res in results],
    })
