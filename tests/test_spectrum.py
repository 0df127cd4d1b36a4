"""Block spectrum: agreement with the dense solver, one solve per state, PPT minimum."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergokit import (
    Bipartition,
    DensityMatrix,
    DomainError,
    InfeasibilityError,
    SystemSpec,
    apply_unitary,
    build_hamiltonian,
    diagonal_state_at_entropy,
    dicke_thermal_mixture,
    entangled_pure_state,
    ergotropy,
    level_inversion_unitary,
    min_pt_eigenvalue,
    pair_rotation_unitary,
    passive_state,
    product_thermal_state,
    separable_optimal_state,
    state_eigenvalues,
    thermal_entropy,
    von_neumann_entropy,
)
from ergokit.verify import random_density_matrix
from dense_oracle import partial_transpose
from strategies import BETAS, specs, structured_states


def random_chains(rng, dim: int) -> DensityMatrix:
    """Random state, tridiagonal in shuffled index order, given as a dense array.

    B B^T of an upper-bidiagonal B is tridiagonal; zeroed superdiagonal
    entries cut the path into pieces, which the state keeps as one block.
    """
    upper = rng.standard_normal(dim - 1) * (rng.uniform(size=dim - 1) < 0.8)
    factor = np.diag(rng.uniform(0.5, 1.0, dim)) + np.diag(upper, 1)
    perm = rng.permutation(dim)
    mat = (factor @ factor.T)[np.ix_(perm, perm)]
    return DensityMatrix(mat / np.trace(mat))


def family_states(spec: SystemSpec, beta_prime: float, angle: float, seed: int) -> dict:
    """Every state family at spec, rotated and shell-inverted states, and random states."""
    rng = np.random.default_rng(seed)
    states = {
        "product": product_thermal_state(spec, beta_prime),
        "random": random_density_matrix(rng, spec.dim),
        "chains": random_chains(rng, spec.dim),
    }
    if spec.n >= 2:
        states["entangled"] = entangled_pure_state(spec)
        states["separable"] = separable_optimal_state(spec)
    if spec.d == 2:
        start = product_thermal_state(spec, beta_prime)
        states["dicke"] = dicke_thermal_mixture(spec)
        states["rotated"] = apply_unitary(start, pair_rotation_unitary(spec, angle))
        for level in range((spec.n + 1) // 2):
            states[f"inverted-{level}"] = apply_unitary(
                start, level_inversion_unitary(spec, level))
        try:
            states["fixed-entropy"] = diagonal_state_at_entropy(
                spec, thermal_entropy(spec) + 0.5 * angle)[0]
        except (DomainError, InfeasibilityError):  # above n S(tau_beta), or refused
            pass
    return states


def dense_spectrum(entries: np.ndarray) -> np.ndarray:
    return np.sort(np.linalg.eigvalsh(entries))[::-1]


@settings(max_examples=60)
@given(spec=specs(max_dim=128), beta_prime=BETAS, angle=st.floats(0.0, math.pi / 2),
       seed=st.integers(0, 2 ** 32 - 1))
@example(spec=SystemSpec(n=5, d=2, local_energies=(0.0, 0.0), beta=30.0),
         beta_prime=0.0, angle=0.4, seed=1)
@example(spec=SystemSpec(n=3, d=3, local_energies=(0.0, 1.0, 2.5), beta=0.0),
         beta_prime=30.0, angle=1.2, seed=2)
def test_block_spectrum_matches_dense(spec, beta_prime, angle, seed):
    for name, state in family_states(spec, beta_prime, angle, seed).items():
        gap = float(np.abs(state_eigenvalues(state) - dense_spectrum(state.entries)).max())
        assert gap <= 1e-12, f"{name}: block spectrum off by {gap}"


@settings(max_examples=40)
@given(spec=specs(max_dim=64), beta_prime=BETAS, angle=st.floats(0.0, math.pi / 2),
       seed=st.integers(0, 2 ** 32 - 1), drawn=structured_states(), data=st.data())
def test_min_pt_eigenvalue_matches_dense(spec, beta_prime, angle, seed, drawn, data):
    cases = [(drawn[1], {"structured": drawn[0]})]
    if spec.n >= 2:
        cases.append((spec, family_states(spec, beta_prime, angle, seed)))
    for spec, states in cases:
        if spec.n < 2:
            continue
        side = data.draw(st.sets(st.integers(1, spec.n), min_size=1, max_size=spec.n - 1))
        part = Bipartition(side_a=frozenset(side), n=spec.n)
        for name, state in states.items():
            dense = float(np.linalg.eigvalsh(partial_transpose(state, spec, part)).min())
            gap = abs(min_pt_eigenvalue(state, spec, part) - dense)
            assert gap <= 1e-12, f"{name}, side {sorted(side)}: min PT eigenvalue off by {gap}"


def test_min_pt_eigenvalue_of_a_dense_array_over_several_slabs():
    # each state is one 256 x 256 block, scattered into the partial
    # transpose's components 128 rows at a time
    spec = SystemSpec.qubits(8, 1.0)
    rng = np.random.default_rng(8)
    for state in (random_chains(rng, spec.dim), random_density_matrix(rng, spec.dim)):
        for side in ({1}, {2, 3, 7}):
            part = Bipartition(side_a=frozenset(side), n=spec.n)
            dense = float(np.linalg.eigvalsh(partial_transpose(state, spec, part)).min())
            assert abs(min_pt_eigenvalue(state, spec, part) - dense) <= 1e-12


def test_min_pt_eigenvalue_is_zero_on_unreached_indices():
    # the separable state holds d populations; no entry reaches any other index
    for n in (2, 3, 6):
        spec = SystemSpec.qubits(n, 1.0)
        for side in ({1}, set(range(1, n))):
            part = Bipartition(side_a=frozenset(side), n=n)
            assert min_pt_eigenvalue(separable_optimal_state(spec), spec, part) == 0.0


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0, 30.0])
def test_dicke_half_split_transpose_minimum_is_exactly_zero(beta):
    # each block of the transposed Dicke mixture is rank one: its other
    # eigenvalues are zeros, solved within the k eps max|lam| cutoff
    for n in range(2, 11):
        spec = SystemSpec.qubits(n, beta)
        part = Bipartition.half_split(n)
        assert min_pt_eigenvalue(dicke_thermal_mixture(spec), spec, part) == 0.0, n


@settings(max_examples=60)
@given(n=st.integers(2, 10), d=st.sampled_from([2, 3]),
       beta=st.sampled_from([0.0, 30.0]) | st.floats(0.0, 30.0))
def test_pure_states_have_entropy_exactly_zero(n, d, beta):
    spec = SystemSpec(n=n, d=d, local_energies=tuple(map(float, range(d))), beta=beta)
    assert von_neumann_entropy(entangled_pure_state(spec)) == 0.0


def spy_eigvalsh(monkeypatch) -> list:
    """Record the shape of every array passed to np.linalg.eigvalsh."""
    shapes = []
    solve = np.linalg.eigvalsh

    def spy(arr):
        shapes.append(arr.shape)
        return solve(arr)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def test_one_sided_tiny_entry_links_a_block(monkeypatch):
    spec = SystemSpec.qubits(2, 1.0)
    part = Bipartition(side_a=frozenset({1}), n=2)
    shapes = spy_eigvalsh(monkeypatch)
    # a 1e-13 entry on one side only (inside the Hermiticity tolerance, so the
    # state is valid) moves to (2, 1) or (1, 2) and still links 1 and 2
    for at in ((0, 3), (3, 0)):
        entries = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
        entries[at] = 1e-13
        rho = DensityMatrix(entries)
        shapes.clear()
        value = min_pt_eigenvalue(rho, spec, part)
        assert [shape for shape in shapes if shape[0] > 0] == [(1, 2, 2)], at
        dense = np.linalg.eigvalsh(partial_transpose(rho, spec, part)).min()
        assert abs(value - dense) <= 1e-15


def test_a_dense_array_is_one_block_unless_diagonal(monkeypatch):
    spec = SystemSpec.qubits(8, 1.0)
    product = product_thermal_state(spec, 1.5)
    parts = apply_unitary(product, pair_rotation_unitary(spec, 0.4))
    shapes = spy_eigvalsh(monkeypatch)
    # the rotated product's 2 x 2 blocks, given densely, are one block over every index
    given_densely = DensityMatrix(parts.entries)
    assert [index.tolist() for index, _ in given_densely.groups] == [[list(range(spec.dim))]]
    assert not given_densely.populations.any()
    lam = state_eigenvalues(given_densely)
    assert shapes == [(1, spec.dim, spec.dim)]
    assert float(np.abs(lam - state_eigenvalues(parts)).max()) <= 1e-12
    # a diagonal array is its populations, with nothing to solve
    diagonal = DensityMatrix(product.entries)
    assert not diagonal.groups
    assert np.array_equal(diagonal.populations, product.populations)
    # an unpopulated index of a coupled array stays in the one block
    whole = random_density_matrix(np.random.default_rng(3), 16)
    unpopulated = whole.entries.copy()
    unpopulated[0] = unpopulated[:, 0] = 0.0
    unpopulated /= unpopulated.trace()
    kept = DensityMatrix(unpopulated)
    assert [index.tolist() for index, _ in kept.groups] == [[list(range(16))]]
    expected = np.sort(np.linalg.eigvalsh(unpopulated))[::-1]
    assert float(np.abs(state_eigenvalues(kept) - expected).max()) <= 1e-12


def test_spectrum_is_solved_once_per_state(monkeypatch):
    spec = SystemSpec.qubits(3, 1.0)
    ham = build_hamiltonian(spec)
    rho = entangled_pure_state(spec)
    shapes = spy_eigvalsh(monkeypatch)
    first = state_eigenvalues(rho)
    solves = len(shapes)
    assert solves > 0
    von_neumann_entropy(rho)
    ergotropy(rho, ham, spec)
    passive_state(rho, ham)
    assert state_eigenvalues(rho) is first
    assert len(shapes) == solves
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
