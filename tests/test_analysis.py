"""Partial transposition, the analytic NPT witness, bath bounds, counting."""

import math

import numpy as np
import pytest

from ergokit import (
    Bipartition,
    DensityMatrix,
    DomainError,
    SystemSpec,
    bath_extractable_work,
    build_hamiltonian,
    count_global_energies,
    dicke_mixture_work_formula,
    entangled_pure_state,
    entanglement_verdict,
    free_energy,
    mutual_information_multipartite,
    npt_witness_half_split,
    product_thermal_state,
    separable_optimal_state,
    thermal_entropy,
    thermal_params,
)
from dense_oracle import partial_transpose

P1 = math.exp(-1.0) / (1.0 + math.exp(-1.0))


def bell_state() -> DensityMatrix:
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    return DensityMatrix.from_pure(vec)


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

def test_bipartition_validation():
    part = Bipartition.half_split(4)
    assert part.side_a == frozenset({1, 2})
    assert part.side_b == frozenset({3, 4})
    with pytest.raises(DomainError):
        Bipartition(side_a=frozenset(), n=3)
    with pytest.raises(DomainError):
        Bipartition(side_a=frozenset({1, 2, 3}), n=3)
    with pytest.raises(DomainError):
        Bipartition(side_a=frozenset({0}), n=3)


def test_pt_of_product_state_is_psd():
    spec = SystemSpec.qubits(2, 1.0)
    pt = partial_transpose(product_thermal_state(spec), spec, Bipartition.half_split(2))
    assert np.linalg.eigvalsh(pt).min() >= -1e-12


def test_pt_of_bell_state_min_eigenvalue():
    spec = SystemSpec.qubits(2, 1.0)
    pt = partial_transpose(bell_state(), spec, Bipartition.half_split(2))
    assert abs(np.linalg.eigvalsh(pt).min() - (-0.5)) <= 1e-12
    # hermiticity preserved
    assert float(np.abs(pt - pt.conj().T).max()) <= 1e-12


def test_pt_leaves_diagonal_states_unchanged():
    spec = SystemSpec.qubits(3, 1.0)
    state = separable_optimal_state(spec)
    for side in ({1}, {2}, {1, 3}):
        pt = partial_transpose(state, spec, Bipartition(side_a=frozenset(side), n=3))
        np.testing.assert_array_equal(pt, state.entries)


def test_pt_involution_and_side_symmetry(rng):
    spec = SystemSpec.qubits(2, 1.0)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = DensityMatrix((g @ g.conj().T) / np.trace(g @ g.conj().T))
    part_a = Bipartition(side_a=frozenset({1}), n=2)
    part_b = Bipartition(side_a=frozenset({2}), n=2)
    once = partial_transpose(rho, spec, part_a)
    twice = partial_transpose(DensityMatrix(once), spec, part_a)
    np.testing.assert_allclose(twice, rho.entries, atol=1e-14)
    # transposing the other side gives the full transpose of the first
    np.testing.assert_allclose(partial_transpose(rho, spec, part_b), once.T,
                               atol=1e-14)


def test_verdict_thresholds():
    spec = SystemSpec.qubits(2, 1.0)
    verdict = entanglement_verdict(bell_state(), spec, Bipartition.half_split(2))
    assert verdict.verdict == verdict.ENTANGLED
    assert verdict.min_pt_eigenvalue < -1e-10
    tame = entanglement_verdict(product_thermal_state(spec), spec,
                                Bipartition.half_split(2))
    assert tame.verdict == tame.UNDECIDED


# ---------------------------------------------------------------------------
# closed-form witness
# ---------------------------------------------------------------------------

def test_witness_no_rotation_is_undecided():
    spec = SystemSpec.qubits(4, 1.0)
    value = npt_witness_half_split(spec, 1.0, 0.0)
    assert abs(value - (-2 * math.exp(-2.0))) <= 1e-14
    assert value < 0


def test_witness_point_value():
    spec = SystemSpec.qubits(2, 1.0)
    value = npt_witness_half_split(spec, 1.0, math.pi / 4)
    exact = (1 - math.exp(-2.0)) - 2 * math.exp(-1.0)
    assert abs(value - exact) <= 1e-15
    assert abs(value - 0.128906) <= 1e-6


def test_witness_grows_with_n():
    values = []
    for n in (2, 4, 6, 8):
        spec = SystemSpec.qubits(n, 1.0)
        values.append(npt_witness_half_split(spec, 1.0, math.pi / 8))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < math.sin(math.pi / 4)


def test_witness_requires_even_qubit_count():
    with pytest.raises(DomainError):
        npt_witness_half_split(SystemSpec.qubits(3, 1.0), 1.0, 0.3)


# ---------------------------------------------------------------------------
# free energy and the bath bound
# ---------------------------------------------------------------------------

def test_free_energy_equilibrium_identity():
    for n in (1, 2, 3):
        spec = SystemSpec.qubits(n, 1.0)
        value = free_energy(product_thermal_state(spec), build_hamiltonian(spec), 1.0)
        z = thermal_params(spec).partition_function
        assert abs(value - (-n * math.log(z))) <= 1e-9


def test_free_energy_of_ground_state_is_zero():
    spec = SystemSpec.qubits(2, 1.0)
    ground = np.zeros(4)
    ground[0] = 1.0
    rho = DensityMatrix.from_diagonal(ground)
    assert abs(free_energy(rho, build_hamiltonian(spec), 1.0)) <= 1e-10


def test_free_energy_of_correlated_pure_state():
    spec = SystemSpec.qubits(2, 1.0)
    value = free_energy(entangled_pure_state(spec), build_hamiltonian(spec), 1.0)
    assert abs(value - 2 * P1) <= 1e-9
    assert abs(value - 2 * 0.268941) <= 1e-5


def test_free_energy_requires_positive_beta():
    spec = SystemSpec.qubits(2, 1.0)
    for beta in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            free_energy(product_thermal_state(spec), build_hamiltonian(spec), beta)


def test_bath_work_endpoints():
    spec = SystemSpec.qubits(2, 1.0)
    top = 2 * thermal_entropy(spec)
    assert abs(bath_extractable_work(spec, top)) <= 1e-12
    assert abs(bath_extractable_work(spec, 0.0) - top) <= 1e-12
    assert abs(bath_extractable_work(spec, 0.0) - 1.164406) <= 1e-5
    with pytest.raises(DomainError):
        bath_extractable_work(spec, top + 0.1)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mutual_information_product_is_zero():
    spec = SystemSpec.qubits(3, 1.0)
    assert abs(mutual_information_multipartite(product_thermal_state(spec), spec)) <= 1e-9


def test_mutual_information_of_pure_and_dephased_states():
    spec2 = SystemSpec.qubits(2, 1.0)
    value = mutual_information_multipartite(entangled_pure_state(spec2), spec2)
    assert abs(value - 2 * thermal_entropy(spec2)) <= 1e-9
    assert abs(value - 1.164406) <= 1e-5
    spec3 = SystemSpec.qubits(3, 1.0)
    value3 = mutual_information_multipartite(separable_optimal_state(spec3), spec3)
    assert abs(value3 - 2 * thermal_entropy(spec3)) <= 1e-9
    assert abs(value3 - 1.164406) <= 1e-5


# ---------------------------------------------------------------------------
# level counting and the Dicke work formula
# ---------------------------------------------------------------------------

def test_count_examples():
    assert count_global_energies(2, 2) == 3
    assert count_global_energies(3, 3) == 10
    assert count_global_energies(5, 1) == 1


def test_dicke_formula_single_qubit_is_zero():
    assert abs(dicke_mixture_work_formula(SystemSpec.qubits(1, 1.0))) <= 1e-15


def test_dicke_formula_two_qubits():
    spec = SystemSpec.qubits(2, 1.0)
    assert abs(dicke_mixture_work_formula(spec) - P1 ** 2) <= 1e-15
    assert abs(dicke_mixture_work_formula(spec) - 0.072329) <= 1e-6
