"""Passive states, ergotropy, entropy inversion and the work bounds."""

import itertools
import math

import numpy as np
import pytest

from ergokit import (
    DensityMatrix,
    DomainError,
    SystemSpec,
    beta_for_entropy,
    build_hamiltonian,
    entangled_pure_state,
    entropy_constrained_bound,
    ergotropy,
    gibbs_weighted_superposition,
    is_passive,
    passive_state,
    product_thermal_state,
    separable_optimal_state,
    separable_work_limit,
    thermal_entropy,
    thermal_params,
    thermal_state,
)
from ergokit.figures import figure1_rows
from ergokit.verify import random_density_matrix

P1 = math.exp(-1.0) / (1.0 + math.exp(-1.0))


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


# ---------------------------------------------------------------------------
# thermal states
# ---------------------------------------------------------------------------

def test_thermal_state_infinite_temperature():
    spec = SystemSpec.qubits(1, 1.0)
    np.testing.assert_allclose(thermal_state(spec, 0.0).entries, np.eye(2) / 2,
                               atol=1e-14)


def test_thermal_state_populations():
    spec = SystemSpec.qubits(1, 1.0)
    np.testing.assert_allclose(thermal_state(spec).diagonal, [1 - P1, P1], atol=1e-14)
    np.testing.assert_allclose(thermal_state(spec).diagonal,
                               [0.731059, 0.268941], atol=1e-6)


def test_thermal_bias_matches_tanh():
    spec = SystemSpec.qubits(1, 1.0)
    assert abs(thermal_params(spec).bias - math.tanh(0.5)) <= 1e-14
    assert abs(thermal_params(spec).bias - 0.462117) <= 1e-6
    spec2 = SystemSpec.qubits(1, 1.7, energy=0.8)
    assert abs(thermal_params(spec2).bias - math.tanh(1.7 * 0.8 / 2)) <= 1e-14


def test_thermal_params_normalized():
    spec = SystemSpec(n=1, d=4, local_energies=(0.0, 0.5, 1.5, 3.0), beta=1.3)
    params = thermal_params(spec)
    assert abs(sum(params.populations) - 1.0) <= 1e-12
    expected = [math.exp(-1.3 * e) / params.partition_function
                for e in spec.local_energies]
    np.testing.assert_allclose(params.populations, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# passive state and ergotropy
# ---------------------------------------------------------------------------

def test_passive_state_sorts_populations():
    rho = DensityMatrix.from_diagonal([0.1, 0.2, 0.3, 0.4])
    out = passive_state(rho, [0.0, 1.0, 1.0, 2.0])
    np.testing.assert_allclose(out.diagonal, [0.4, 0.3, 0.2, 0.1], atol=1e-14)


def test_thermal_product_already_passive():
    for n in (1, 2, 3):
        spec = SystemSpec.qubits(n, 1.0)
        state = product_thermal_state(spec)
        out = passive_state(state, build_hamiltonian(spec))
        np.testing.assert_allclose(out.diagonal, state.diagonal, atol=1e-14)


def test_passive_of_correlated_pure_is_ground_projector():
    for n, beta in ((2, 0.5), (3, 1.0), (4, 2.0)):
        spec = SystemSpec.qubits(n, beta)
        out = passive_state(entangled_pure_state(spec), build_hamiltonian(spec))
        expected = np.zeros(spec.dim)
        expected[0] = 1.0
        np.testing.assert_allclose(out.diagonal, expected, atol=1e-9)


def test_ergotropy_thermal_is_zero():
    for n in (1, 2, 4):
        spec = SystemSpec.qubits(n, 1.0)
        report = ergotropy(product_thermal_state(spec), build_hamiltonian(spec))
        assert abs(report.ergotropy) <= 1e-10


def test_ergotropy_correlated_pure_n4():
    spec = SystemSpec.qubits(4, 1.0)
    report = ergotropy(entangled_pure_state(spec), build_hamiltonian(spec), spec)
    assert abs(report.ergotropy - 4 * P1) <= 1e-10
    assert abs(report.ergotropy - 1.075766) <= 1e-5
    assert abs(report.ratio_to_bound - 1.0) <= 1e-9


def test_ergotropy_dicke_mixture_n2_with_assignment_oracle():
    from ergokit import dicke_thermal_mixture

    spec = SystemSpec.qubits(2, 1.0)
    ham = build_hamiltonian(spec)
    report = ergotropy(dicke_thermal_mixture(spec), ham)
    assert abs(report.ergotropy - P1 ** 2) <= 1e-10
    assert abs(report.ergotropy - 0.072329) <= 1e-6
    # oracle: best of all 4! placements of the binomial weights on the levels
    weights = [(1 - P1) ** 2, 2 * P1 * (1 - P1), P1 ** 2, 0.0]
    best = min(
        sum(w * e for w, e in zip(perm, ham))
        for perm in itertools.permutations(weights)
    )
    assert abs(report.passive_energy - best) <= 1e-12


def test_ergotropy_report_identity_and_sign(rng):
    spec = SystemSpec.qubits(3, 1.0)
    ham = build_hamiltonian(spec)
    for _ in range(10):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = DensityMatrix((g @ g.conj().T) / np.trace(g @ g.conj().T))
        report = ergotropy(rho, ham)
        assert abs(report.ergotropy - (report.initial_energy - report.passive_energy)) <= 1e-10
        assert report.ergotropy >= -1e-10


def test_ergotropy_diagonal_matches_permutation_oracle(rng):
    spec = SystemSpec(n=1, d=6, local_energies=(0.0, 0.4, 0.4, 1.0, 2.0, 2.0), beta=1.0)
    ham = build_hamiltonian(spec)
    perms = np.array(list(itertools.permutations(range(6))))
    for _ in range(12):
        pops = rng.dirichlet(np.ones(6))
        report = ergotropy(DensityMatrix.from_diagonal(pops), ham)
        oracle = float((pops[perms] @ ham).min())
        assert abs(report.passive_energy - oracle) <= 1e-12


def test_pure_state_route_matches_dense_route():
    # figure1's closed form: a pure state's passive energy is the ground
    # energy 0, so its work is n E_beta and its ratio 1
    rows = figure1_rows(1.0, 4)
    for n in (2, 3, 4):
        spec = SystemSpec.qubits(n, 1.0)
        ham = build_hamiltonian(spec)
        vec = gibbs_weighted_superposition(spec)
        dense = ergotropy(DensityMatrix.from_pure(vec), ham, spec)
        assert abs(dense.passive_energy) <= 1e-12
        assert abs(rows[n - 1].entangled_ratio - dense.ratio_to_bound) <= 1e-10


# ---------------------------------------------------------------------------
# is_passive
# ---------------------------------------------------------------------------

def test_is_passive_thermal_product(qubit_pair):
    assert is_passive(product_thermal_state(qubit_pair), build_hamiltonian(qubit_pair))


def test_is_passive_rejects_population_inversion():
    rho = DensityMatrix.from_diagonal([0.2, 0.8])
    assert not is_passive(rho, [0.0, 1.0])


def test_is_passive_rejects_correlated_mixture():
    for n in (2, 3):
        spec = SystemSpec.qubits(n, 1.0)
        assert not is_passive(separable_optimal_state(spec), build_hamiltonian(spec))


def test_is_passive_rejects_coherences(qubit_pair):
    assert not is_passive(entangled_pure_state(qubit_pair),
                          build_hamiltonian(qubit_pair))


def test_is_passive_ignores_order_inside_degenerate_shell():
    rho = DensityMatrix.from_diagonal([0.4, 0.2, 0.3, 0.1])
    assert is_passive(rho, [0.0, 1.0, 1.0, 2.0])
    rho2 = DensityMatrix.from_diagonal([0.2, 0.3, 0.4, 0.1])
    assert not is_passive(rho2, [0.0, 1.0, 1.0, 2.0])


def test_is_passive_accepts_coherence_inside_a_shell():
    # commutes with H = diag(0, 1, 1); shell eigenvalues 0.5, 0 sit below 0.5
    rho = DensityMatrix(np.array([[0.5, 0, 0], [0, 0.25, 0.25], [0, 0.25, 0.25]]))
    assert is_passive(rho, [0.0, 1.0, 1.0])
    assert ergotropy(rho, [0.0, 1.0, 1.0]).ergotropy == 0.0


def test_is_passive_orders_a_shell_by_its_eigenvalues():
    # populations 0.4, 0.3, 0.3 fall with energy, but the shell's eigenvalues
    # are 0.6 and 0, and 0.6 lies above the ground population 0.4
    rho = DensityMatrix(np.array([[0.4, 0, 0], [0, 0.3, 0.3], [0, 0.3, 0.3]]))
    assert not is_passive(rho, [0.0, 1.0, 1.0])
    assert abs(ergotropy(rho, [0.0, 1.0, 1.0]).ergotropy - 0.2) <= 1e-12


def test_is_passive_rejects_coherence_across_energies():
    rho = DensityMatrix(np.array([[0.6, 0.1, 0], [0.1, 0.3, 0], [0, 0, 0.1]]))
    assert not is_passive(rho, [0.0, 1.0, 1.0])
    assert not is_passive(rho, [0.0, 1.0, 2.0])


def test_is_passive_rejects_random_coherent_states():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        spec = SystemSpec.qubits(n, 1.0)
        for _ in range(5):
            assert not is_passive(random_density_matrix(rng, spec.dim),
                                  build_hamiltonian(spec))


# ---------------------------------------------------------------------------
# entropy inversion
# ---------------------------------------------------------------------------

def test_beta_for_entropy_maximal_entropy_returns_zero():
    spec = SystemSpec.qubits(1, 1.0)
    assert beta_for_entropy(spec, math.log(2.0)).beta_prime == 0.0


def test_beta_for_entropy_zero_entropy_hits_sentinel():
    spec = SystemSpec.qubits(1, 1.0)
    params = beta_for_entropy(spec, 0.0)
    assert params.beta_prime >= 1e6
    assert params.entropy < 1e-12


def test_beta_for_entropy_against_dense_scan():
    spec = SystemSpec.qubits(1, 1.0)
    target = 0.291101
    params = beta_for_entropy(spec, target)
    found = params.populations[1]
    # independent oracle: dense scan of the excited population at step 1e-6
    grid = np.arange(0.0, 0.5 + 1e-6, 1e-6)
    with np.errstate(all="ignore"):
        values = -grid * np.log(grid) - (1 - grid) * np.log(1 - grid)
    values[0] = 0.0
    scanned = grid[int(np.argmin(np.abs(values - target)))]
    assert abs(found - scanned) <= 2e-6
    assert abs(found - 0.0852) <= 5e-4
    assert abs(params.entropy - target) <= 1e-12


def test_beta_for_entropy_domain_errors():
    spec = SystemSpec.qubits(1, 1.0)
    with pytest.raises(DomainError):
        beta_for_entropy(spec, -0.05)
    with pytest.raises(DomainError):
        beta_for_entropy(spec, math.log(2.0) + 0.05)
    with pytest.raises(DomainError):
        beta_for_entropy(SystemSpec.qubits(3, 1.0), math.nan)
    with pytest.raises(DomainError):
        entropy_constrained_bound(SystemSpec.qubits(3, 1.0), math.nan)


@pytest.mark.parametrize("beta_e", [0.01, 1.0, 10.0, 28.0, 30.0, 35.0])
def test_beta_for_entropy_recovers_beta(beta_e):
    # at beta E = 30 the target entropy is about 3e-12, so an absolute
    # 1e-12 entropy residual alone would leave beta' far off
    for spec in (SystemSpec.qubits(1, 1.0), SystemSpec.qubits(1, 1.0, energy=2.0)):
        beta = beta_e / spec.energy_gap
        found = beta_for_entropy(spec, thermal_entropy(spec, beta)).beta_prime
        assert abs(found - beta) <= 1e-9 * beta


def closed_form_qubit_entropy(x: float) -> float:
    """Entropy of a qubit Gibbs state at beta E = x: x p1 + ln Z, with ln Z = log1p(e^-x)."""
    q = math.exp(-x)
    return x * q / (1.0 + q) + math.log1p(q)


@pytest.mark.parametrize("beta_e", [30.0, 35.0, 40.0])
def test_thermal_entropy_and_figure1_at_large_beta_match_closed_forms(beta_e):
    spec = SystemSpec.qubits(2, beta_e)
    exact = closed_form_qubit_entropy(beta_e)
    assert abs(thermal_entropy(spec) - exact) <= 1e-13 * exact
    # n = 2: the bound's product state holds half that entropy per qubit
    lo, hi = beta_e, beta_e + 40.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if closed_form_qubit_entropy(mid) > 0.5 * exact:
            lo = mid
        else:
            hi = mid
    ratio = 1.0 - (1.0 + math.exp(beta_e)) / (1.0 + math.exp(lo))
    assert abs(figure1_rows(beta_e, 2)[1].entropy_bound_ratio - ratio) <= 1e-7


def test_beta_for_entropy_qutrit():
    spec = SystemSpec(n=1, d=3, local_energies=(0.0, 1.0, 2.5), beta=1.0)
    params = beta_for_entropy(spec, 0.6)
    assert abs(params.entropy - 0.6) <= 1e-12


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_entropy_bound_vanishes_at_thermal_entropy():
    for n in (1, 2, 5):
        spec = SystemSpec.qubits(n, 1.0)
        assert abs(entropy_constrained_bound(spec, n * thermal_entropy(spec))) <= 1e-10


def test_entropy_bound_pure_limit_is_total_energy():
    spec = SystemSpec.qubits(3, 1.0)
    assert abs(entropy_constrained_bound(spec, 0.0) - 3 * P1) <= 1e-12


def test_entropy_bound_two_qubit_value():
    spec = SystemSpec.qubits(2, 1.0)
    value = entropy_constrained_bound(spec, thermal_entropy(spec))
    assert abs(value - 0.3675) <= 2e-3
    # sharper pin from the bisection itself
    half = beta_for_entropy(spec, thermal_entropy(spec) / 2).populations[1]
    assert abs(value - 2 * (P1 - half)) <= 1e-12


@pytest.mark.parametrize("beta_e", [30.0, 40.0])
def test_figure1_entropy_bound_at_large_beta(beta_e):
    rows = figure1_rows(beta_e, 6)
    assert abs(rows[0].entropy_bound_ratio) <= 1e-6
    for row in rows[1:]:
        assert row.separable_ratio <= row.entropy_bound_ratio <= 1.0


def test_separable_limit_ratio_identity_for_qubits():
    # W_sep / (n E_beta) = 1 - 1/n: E_beta = p E and 1 - 1/Z = p cancel exactly;
    # at beta E >= 39 the subtraction 1 - 1/Z itself would round to 0
    for n in range(1, 11):
        for beta in (0.3, 1.0, 2.5, 30.0, 40.0):
            spec = SystemSpec.qubits(n, beta, energy=1.3)
            params = thermal_params(spec)
            ratio = separable_work_limit(spec) / (n * params.mean_energy)
            assert abs(ratio - (1.0 - 1.0 / n)) <= 1e-12


def test_separable_limit_single_qubit_is_zero():
    assert abs(separable_work_limit(SystemSpec.qubits(1, 1.0))) <= 1e-15


def test_separable_limit_n4_value():
    spec = SystemSpec.qubits(4, 1.0)
    assert abs(separable_work_limit(spec) - 3 * P1) <= 1e-12
    assert abs(separable_work_limit(spec) - 0.806824) <= 1e-5


def test_separable_limit_requires_enough_subsystems():
    spec = SystemSpec(n=1, d=3, local_energies=(0.0, 1.0, 2.0), beta=1.0)
    with pytest.raises(DomainError):
        separable_work_limit(spec)


def test_separable_limit_matches_construction():
    for n in (2, 3, 5):
        spec = SystemSpec.qubits(n, 0.8)
        work = ergotropy(separable_optimal_state(spec), build_hamiltonian(spec)).ergotropy
        assert abs(work - separable_work_limit(spec)) <= 1e-10


def test_locally_thermal_work_respects_total_energy_bound(rng):
    spec = SystemSpec.qubits(3, 1.0)
    ham = build_hamiltonian(spec)
    bound = 3 * thermal_params(spec).mean_energy
    sep = separable_optimal_state(spec).entries
    product = product_thermal_state(spec).entries
    for t in rng.uniform(size=6):
        mixed = DensityMatrix(t * sep + (1 - t) * product)
        assert ergotropy(mixed, ham).ergotropy <= bound + 1e-9


def test_ergotropy_convexity_small_sample(rng):
    from ergokit.verify import convexity_gap

    assert convexity_gap(rng, samples=60) <= 1e-9
