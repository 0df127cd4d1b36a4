"""Hilbert-space algebra: Hamming weights, Hamiltonians, traces, spectra, entropy, unitaries."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergokit import (
    Bipartition,
    CapacityError,
    DensityMatrix,
    DomainError,
    ShapeError,
    StructuredUnitary,
    SystemSpec,
    ValidityError,
    apply_unitary,
    build_hamiltonian,
    diagonal_state_at_entropy,
    dicke_thermal_mixture,
    entangled_pure_state,
    measure_bias,
    partial_trace_to,
    state_eigenvalues,
    product_thermal_state,
    separable_optimal_state,
    thermal_state,
    von_neumann_entropy,
)
from ergokit import core
from ergokit.core import _HERMITICITY_TILE, _hamming_weights, _hermiticity_defect
from ergokit.verify import random_density_matrix

# frozen closed forms at beta = 1, E = 1
P1 = math.exp(-1.0) / (1.0 + math.exp(-1.0))  # 0.2689414213699951


def bell_state() -> DensityMatrix:
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / math.sqrt(2.0)
    return DensityMatrix.from_pure(vec)


# ---------------------------------------------------------------------------
# SystemSpec and Hamming weights
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_parameters():
    with pytest.raises(DomainError):
        SystemSpec.qubits(0, 1.0)
    with pytest.raises(DomainError):
        SystemSpec(n=2, d=1, local_energies=(0.0,), beta=1.0)
    with pytest.raises(DomainError):
        SystemSpec(n=2, d=2, local_energies=(0.5, 1.0), beta=1.0)
    with pytest.raises(DomainError):
        SystemSpec(n=2, d=3, local_energies=(0.0, 2.0, 1.0), beta=1.0)
    for ladder in ((0.0, math.nan), (0.0, math.inf), (0.0, math.nan, 1.0)):
        with pytest.raises(DomainError):
            SystemSpec(n=2, d=len(ladder), local_energies=ladder, beta=1.0)
    with pytest.raises(DomainError):
        SystemSpec.qubits(2, -0.5)
    # (n E_max)^2 must stay finite: 2e308 overflows, and so does (3e154)^2
    for n, energy in ((2, 1e308), (3, 1e154)):
        with pytest.raises(DomainError, match="overflows"):
            SystemSpec.qubits(n, 1.0, energy=energy)
    assert SystemSpec.qubits(1, 1.0, energy=1e154).energy_gap == 1e154


def test_state_sized_arrays_are_refused_before_they_are_built(monkeypatch):
    # the limit is in bytes, where arrays are built; a spec alone is small
    assert SystemSpec.qubits(1000, 1.0).dim == 2 ** 1000
    builders = {
        "_hamming_weights": lambda spec: _hamming_weights.__wrapped__(spec.n),  # past its cache
        "build_hamiltonian": build_hamiltonian,
        "product_thermal_state": product_thermal_state,
        "entangled_pure_state": entangled_pure_state,
        "separable_optimal_state": separable_optimal_state,
        "diagonal_state_at_entropy": lambda spec: diagonal_state_at_entropy(spec, 2.0),
        "dicke_thermal_mixture": dicke_thermal_mixture,
    }
    # 64 bytes per basis index: a 64 MiB limit admits n = 20 qubits, not n = 21,
    # whose smallest vector alone would take 16 MiB
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 64 * 2 ** 20)
    for name, build in builders.items():
        if name != "dicke_thermal_mixture":  # its C(40, 20) shell entries are over
            build(SystemSpec.qubits(20, 1.0))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="bytes"):
                build(SystemSpec.qubits(21, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, name


def test_size_checks_name_their_array_only_when_they_raise(monkeypatch):
    qutrits = SystemSpec(n=3, d=3, local_energies=(0.0, 1.0, 2.0), beta=1.0)
    qubits = SystemSpec.qubits(4, 1.0)
    over = [
        (lambda: _hamming_weights.__wrapped__(25),
         "a state of dimension 2^25 needs 2^31 bytes, over the limit of 2^30"),
        (lambda: DensityMatrix.from_diagonal(np.full(2 ** 14, 2.0 ** -14)).entries,
         "a dense 2^14 x 2^14 matrix needs 2^32 bytes, over the limit of 2^30"),
        (lambda: separable_optimal_state(SystemSpec(n=16, d=3, local_energies=(0.0, 1.0, 2.0),
                                                    beta=1.0)),
         "a state of dimension ~2^25.4 needs ~2^31.4 bytes, over the limit of 2^30"),
        (lambda: StructuredUnitary([], 2 ** 25),
         "a state of dimension 2^25 needs 2^31 bytes, over the limit of 2^30"),
        (lambda: StructuredUnitary([], 3 ** 9).materialize(),
         "a dense ~2^14.3 x ~2^14.3 matrix needs ~2^32.5 bytes, over the limit of 2^30"),
    ]

    def unformatted(size):
        raise AssertionError(f"a check under the budget formatted its size {size}")

    with monkeypatch.context() as patch:
        patch.setattr(core, "_power_of_two", unformatted)
        states = [entangled_pure_state(qutrits), separable_optimal_state(qutrits),
                  product_thermal_state(qutrits), dicke_thermal_mixture(qubits),
                  diagonal_state_at_entropy(qubits, 1.5)[0]]
        for state in states:
            assert state.entries.shape == (state.dim, state.dim)
        unitary = StructuredUnitary([(0, 3, 0.4), (1, 2, 0.9)], 4)
        assert unitary.materialize().shape == (4, 4)
        apply_unitary(product_thermal_state(SystemSpec.qubits(2, 1.0)), unitary)
        _hamming_weights.cache_clear()
        assert _hamming_weights(10).size == 1024
    for call, text in over:  # the message, built on raising, is as it was
        with pytest.raises(CapacityError) as raised:
            call()
        assert str(raised.value) == text


def test_hamming_weights_and_negation():
    w = _hamming_weights(4)
    assert [w[0], w[1], w[15]] == [0, 1, 4]
    assert w.sum() == 4 * 2 ** 3
    for i in range(16):
        assert w[i] + w[(2 ** 4 - 1) ^ i] == 4
    # one cached size at a time, so a run over several n holds one vector
    assert _hamming_weights(5).size == 32
    assert _hamming_weights.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# build_hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_two_qubits():
    spec = SystemSpec.qubits(2, 1.0)
    np.testing.assert_array_equal(build_hamiltonian(spec), [0.0, 1.0, 1.0, 2.0])


def test_hamiltonian_single_qutrit():
    spec = SystemSpec(n=1, d=3, local_energies=(0.0, 1.0, 2.0), beta=1.0)
    np.testing.assert_array_equal(build_hamiltonian(spec), [0.0, 1.0, 2.0])


def test_hamiltonian_entry_is_weight():
    spec = SystemSpec.qubits(3, 1.0)
    ham = build_hamiltonian(spec)
    assert ham[0b101] == 2.0
    np.testing.assert_array_equal(ham, _hamming_weights(3).astype(float))


def test_hamiltonian_generic_ladder():
    spec = SystemSpec(n=2, d=3, local_energies=(0.0, 1.0, 2.5), beta=1.0)
    ham = build_hamiltonian(spec)
    for linear in range(9):
        digits = np.unravel_index(linear, (3,) * 2)
        assert ham[linear] == sum(spec.local_energies[a] for a in digits)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_bell_is_maximally_mixed():
    spec = SystemSpec.qubits(2, 1.0)
    reduced = partial_trace_to(bell_state(), spec, 1)
    np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    spec = SystemSpec.qubits(2, 1.0)
    tau = thermal_state(spec)
    reduced = partial_trace_to(product_thermal_state(spec), spec, 2)
    np.testing.assert_allclose(reduced.entries, tau.entries, atol=1e-12)


def test_partial_trace_correlated_pure_marginal():
    spec = SystemSpec.qubits(3, 1.0)
    reduced = partial_trace_to(entangled_pure_state(spec), spec, 2)
    np.testing.assert_allclose(reduced.diagonal, [1.0 - P1, P1], atol=1e-10)
    np.testing.assert_allclose(reduced.diagonal, [0.731059, 0.268941], atol=1e-6)


def test_partial_trace_output_is_valid_state(rng):
    spec = SystemSpec(n=2, d=3, local_energies=(0.0, 0.7, 1.9), beta=0.5)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    rho = DensityMatrix((g @ g.conj().T) / np.trace(g @ g.conj().T))
    for keep in (1, 2):
        reduced = partial_trace_to(rho, spec, keep)
        assert abs(float(reduced.entries.trace().real) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(reduced.entries).min() >= -1e-10


def test_partial_trace_shape_and_domain_errors():
    spec = SystemSpec.qubits(3, 1.0)
    with pytest.raises(ShapeError):
        partial_trace_to(bell_state(), spec, 1)
    with pytest.raises(DomainError):
        partial_trace_to(entangled_pure_state(spec), spec, 4)


@pytest.mark.parametrize("site", [1.5, 2.0, "1", True, np.bool_(True), None])
def test_subsystem_indices_must_be_integers(site):
    spec = SystemSpec.qubits(3, 1.0)
    rho = product_thermal_state(spec)
    with pytest.raises(DomainError, match="not an integer"):
        partial_trace_to(rho, spec, site)
    with pytest.raises(DomainError, match="not an integer"):
        measure_bias(rho, spec, site)
    with pytest.raises(DomainError, match="not an integer"):
        Bipartition(side_a=frozenset({site}), n=3)


def test_numpy_integers_are_subsystem_indices():
    spec = SystemSpec.qubits(3, 1.0)
    rho = product_thermal_state(spec)
    assert np.array_equal(partial_trace_to(rho, spec, np.int64(2)).entries,
                          partial_trace_to(rho, spec, 2).entries)
    assert measure_bias(rho, spec, np.int32(3)) == measure_bias(rho, spec, 3)
    assert Bipartition(side_a=frozenset({np.int64(1)}), n=3).side_a == frozenset({1})


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_pure_state_is_zero():
    assert von_neumann_entropy(bell_state()) <= 1e-10


def test_entropy_maximally_mixed():
    rho = DensityMatrix(np.eye(4) / 4)
    assert abs(von_neumann_entropy(rho) - math.log(4.0)) <= 1e-12


def test_entropy_thermal_qubit():
    spec = SystemSpec.qubits(1, 1.0)
    value = von_neumann_entropy(thermal_state(spec))
    exact = -P1 * math.log(P1) - (1 - P1) * math.log(1 - P1)
    assert abs(value - exact) <= 1e-12
    assert abs(value - 0.582203) <= 1e-5


def test_entropy_rejects_negative_spectrum():
    # a negative population is refused when the state is built; a block's
    # negative eigenvalue where the spectrum is solved
    with pytest.raises(ValidityError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    bad = DensityMatrix(np.array([[0.5, 1.0], [1.0, 0.5]]))
    with pytest.raises(ValidityError):
        von_neumann_entropy(bad)


def test_entropy_invariant_under_unitaries(rng):
    spec = SystemSpec.qubits(2, 1.0)
    for _ in range(5):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = DensityMatrix((g @ g.conj().T) / np.trace(g @ g.conj().T))
        q, r = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        unitary = q * (np.diag(r) / np.abs(np.diag(r)))
        rotated = apply_unitary(rho, unitary)
        assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) <= 1e-9


def test_product_entropy_is_additive():
    for n in (2, 3, 4):
        spec = SystemSpec.qubits(n, 1.0)
        local = von_neumann_entropy(thermal_state(spec, 0.7))
        total = von_neumann_entropy(product_thermal_state(spec, 0.7))
        assert abs(total - n * local) <= 1e-9


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_eigendecompose_diagonal():
    rho = DensityMatrix(np.diag([0.1, 0.9]).astype(complex))
    np.testing.assert_allclose(state_eigenvalues(rho), [0.9, 0.1], atol=1e-14)


def test_eigendecompose_rank_one():
    np.testing.assert_allclose(state_eigenvalues(bell_state()), [1.0, 0.0, 0.0, 0.0],
                               atol=1e-12)


def test_eigendecompose_dicke_mixture_spectrum():
    spec = SystemSpec.qubits(2, 1.0)
    values = state_eigenvalues(dicke_thermal_mixture(spec))
    exact = sorted([(1 - P1) ** 2, 2 * P1 * (1 - P1), P1 ** 2, 0.0], reverse=True)
    np.testing.assert_allclose(values, exact, atol=1e-12)
    np.testing.assert_allclose(values, [0.534447, 0.393224, 0.072329, 0.0], atol=1e-6)
    assert abs(values.sum() - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# apply_unitary
# ---------------------------------------------------------------------------

def test_apply_identity_unchanged():
    rho = bell_state()
    out = apply_unitary(rho, np.eye(4))
    np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)


def test_apply_swap_exchanges_factors():
    spec = SystemSpec.qubits(2, 1.0)
    hot = thermal_state(spec, 0.3).entries
    cold = thermal_state(spec, 2.0).entries
    rho = DensityMatrix(np.kron(hot, cold))
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    out = apply_unitary(rho, swap)
    np.testing.assert_allclose(out.entries, np.kron(cold, hot), atol=1e-13)


def test_apply_full_rotation_moves_population():
    rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    rotation = StructuredUnitary(rotations=((0, 3, math.pi / 2),), dim=4)
    out = apply_unitary(rho, rotation)
    np.testing.assert_allclose(out.diagonal, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_structured_matches_dense(rng):
    diag = rng.dirichlet(np.ones(8))
    rho = DensityMatrix.from_diagonal(diag)
    rotation = StructuredUnitary(rotations=((0, 7, 0.3), (1, 6, 1.1), (2, 5, 2.0)), dim=8)
    fast = apply_unitary(rho, rotation)
    dense = apply_unitary(rho, rotation.materialize())
    np.testing.assert_allclose(fast.entries, dense.entries, atol=1e-12)
    # spectrum and trace preserved
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(fast.entries)), np.sort(diag), atol=1e-12
    )


@st.composite
def rotation_sets(draw):
    """A state dimension and disjoint rotations on it: none, one, some or a full pairing."""
    dim = draw(st.integers(2, 64))
    order = draw(st.permutations(range(dim)))
    count = draw(st.sampled_from([0, 1, dim // 2]) | st.integers(0, dim // 2))
    angles = st.sampled_from([math.pi / 2, 0.0, -math.pi / 2]) | st.floats(-7.0, 7.0)
    rotations = tuple((order[2 * k], order[2 * k + 1], draw(angles)) for k in range(count))
    return StructuredUnitary(rotations=rotations, dim=dim)


@settings(max_examples=80)
@given(unitary=rotation_sets(), seed=st.integers(0, 2 ** 32 - 1))
def test_structured_application_matches_dense_conjugation(unitary, seed):
    rho = random_density_matrix(np.random.default_rng(seed), unitary.dim)
    out = apply_unitary(rho, unitary)
    mat = unitary.materialize()
    gap = np.abs(out.entries - mat @ rho.entries @ mat.conj().T).max()
    assert gap <= 1e-12
    assert not out.entries.flags.writeable
    assert not np.shares_memory(out.entries, rho.entries)


def test_apply_rejects_nonunitary():
    with pytest.raises(ValidityError):
        apply_unitary(bell_state(), np.ones((4, 4)))
    with pytest.raises(ShapeError):
        apply_unitary(bell_state(), np.eye(8))


def test_structured_unitary_validation():
    with pytest.raises(ValidityError):
        StructuredUnitary(rotations=((0, 1, 0.1), (1, 2, 0.2)), dim=4)
    with pytest.raises(ValidityError):
        StructuredUnitary(rotations=((0, 4, 0.1),), dim=4)
    with pytest.raises(ValidityError):
        StructuredUnitary(rotations=((-1, 2, 0.1),), dim=4)
    with pytest.raises(ValidityError):
        StructuredUnitary(rotations=((2, 2, 0.1),), dim=4)
    with pytest.raises(ValidityError):
        StructuredUnitary(rotations=((0, 1, 0.1), (3, 0, 0.2)), dim=4)
    # the disjointness check marks every index, so dim is sized like a state
    with pytest.raises(CapacityError, match="bytes"):
        StructuredUnitary(rotations=((0, 1, 0.1),), dim=2 ** 60)
    mat = StructuredUnitary(rotations=((0, 3, 0.4), (1, 2, 0.9)), dim=4).materialize()
    assert float(np.abs(mat @ mat.conj().T - np.eye(4)).max()) <= 1e-12


def test_structured_unitary_from_pairs_matches_listed_rotations():
    built = StructuredUnitary.from_pairs([0, 1], [3, 2], [0.4, 0.9], dim=4)
    listed = StructuredUnitary(rotations=((0, 3, 0.4), (1, 2, 0.9)), dim=4)
    assert built.rotations == listed.rotations
    np.testing.assert_array_equal(built.materialize(), listed.materialize())
    assert StructuredUnitary.from_pairs([0], [3], 0.25, dim=4).rotations == ((0, 3, 0.25),)
    with pytest.raises(ValidityError):
        StructuredUnitary.from_pairs([0, 1], [1, 2], 0.1, dim=4)
    with pytest.raises(ValidityError):
        StructuredUnitary.from_pairs([0], [4], 0.1, dim=4)
    with pytest.raises(ShapeError):
        StructuredUnitary.from_pairs([0, 1], [3], 0.1, dim=4)
    with pytest.raises(ShapeError):
        StructuredUnitary.from_pairs([0, 1], [3, 2], [0.1, 0.2, 0.3], dim=4)


# ---------------------------------------------------------------------------
# DensityMatrix validation
# ---------------------------------------------------------------------------

def test_density_matrix_rejects_nonhermitian():
    bad = [np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)]
    # a diagonal array with an imaginary part on a population, and arrays
    # with an entry whose mirror is zero
    for at, value in (((1, 1), 0.1 + 1e-6j), ((0, 3), 1e-6), ((3, 0), 1e-6)):
        split = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
        split[at] = value
        bad.append(split)
    for arr in bad:
        with pytest.raises(ValidityError, match="Hermitian"):
            DensityMatrix(arr)


def test_density_matrix_rejects_non_finite_entries():
    for bad in ([[math.nan, 0.0], [0.0, 1.0]], [[0.5, math.inf], [math.inf, 0.5]],
                [[0.5, 0.0], [0.0, 0.5 + 1j * math.nan]]):
        with pytest.raises(ValidityError):
            DensityMatrix(np.array(bad, dtype=complex))


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValidityError):
        DensityMatrix(np.eye(2, dtype=complex))


def test_density_matrix_entries_are_read_only():
    rho = bell_state()
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 0.0


def test_density_matrix_copies_a_callers_array():
    for given_array in (np.eye(2) / 2, np.eye(2, dtype=complex) / 2):
        rho = DensityMatrix(given_array)
        given_array[0, 0] = 7.0
        assert rho.entries[0, 0] == 0.5
        assert not np.shares_memory(rho.entries, given_array)


@pytest.mark.parametrize("dim", [_HERMITICITY_TILE - 1, _HERMITICITY_TILE + 1,
                                 2 * _HERMITICITY_TILE + 1])
def test_tiled_hermiticity_defect_equals_dense_defect(dim, rng):
    arr = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    arr += arr.conj().T
    arr[rng.integers(dim, size=5), rng.integers(dim, size=5)] += 1e-3 * rng.standard_normal(5)
    assert _hermiticity_defect(arr) == np.abs(arr - arr.conj().T).max()


@pytest.mark.parametrize("bad", [1e-6, math.nan, math.inf])
def test_tiled_hermiticity_check_reads_tiles_below_the_diagonal(bad):
    # the i <= j walk reaches a tile below the diagonal only through the
    # transpose of its partner
    dim = 2 * _HERMITICITY_TILE + 1
    arr = np.eye(dim, dtype=complex) / dim
    arr[_HERMITICITY_TILE + 5, 3] += bad
    assert not _hermiticity_defect(arr) <= 0.0
    with pytest.raises(ValidityError):
        DensityMatrix(arr)
