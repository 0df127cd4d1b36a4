"""Block spectrum: agreement with the dense solver, one solve per state, PPT minimum."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergokit import (
    Bipartition,
    DensityMatrix,
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
    partial_transpose,
    passive_state,
    product_thermal_state,
    separable_optimal_state,
    state_eigenvalues,
    thermal_entropy,
    von_neumann_entropy,
)
from ergokit.verify import random_density_matrix
from strategies import BETAS, specs


def random_chains(rng, dim: int) -> DensityMatrix:
    """Random state whose blocks are paths in shuffled index order.

    B B^T of an upper-bidiagonal B is tridiagonal; zeroed superdiagonal
    entries cut the path, so components take several propagation hops.
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
        except InfeasibilityError:
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
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_min_pt_eigenvalue_matches_dense(spec, beta_prime, angle, seed, data):
    if spec.n < 2:
        return
    side = data.draw(st.sets(st.integers(1, spec.n), min_size=1, max_size=spec.n - 1))
    part = Bipartition(side_a=frozenset(side), n=spec.n)
    for name, state in family_states(spec, beta_prime, angle, seed).items():
        dense = float(np.linalg.eigvalsh(partial_transpose(state, spec, part)).min())
        gap = abs(min_pt_eigenvalue(state, spec, part) - dense)
        assert gap <= 1e-12, f"{name}, side {sorted(side)}: min PT eigenvalue off by {gap}"


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
    entries = np.diag([0.2, 0.3, 0.5]).astype(complex)
    entries[0, 2] = 1e-13  # inside the Hermiticity tolerance, so the state is valid
    rho = DensityMatrix(entries)
    shapes = spy_eigvalsh(monkeypatch)
    values = state_eigenvalues(rho)
    assert [shape for shape in shapes if shape[0] > 0] == [(1, 2, 2)]
    np.testing.assert_allclose(values, dense_spectrum(entries), rtol=0, atol=1e-15)


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
