"""A dense matrix held whole: agreement with the dense references, validation, memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergokit import (
    DensityMatrix,
    SystemSpec,
    ValidityError,
    apply_unitary,
    mutual_information_multipartite,
    partial_trace_to,
    state_eigenvalues,
    von_neumann_entropy,
)
from ergokit.verify import _random_density_array, random_unitary
from dense_oracle import dense_partial_trace

# (n, d) with d**n <= 256
DENSE_SHAPES = [(n, 2) for n in range(1, 7)] + [(n, 3) for n in range(1, 6)] \
    + [(n, 4) for n in range(1, 5)]


@st.composite
def dense_arrays(draw):
    """A caller's dense array, with its spec: random, pure, or two disjoint random parts."""
    n, d = draw(st.sampled_from(DENSE_SHAPES))
    dim = d ** n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "pure", "split"]))
    if kind == "random":
        arr = _random_density_array(rng, dim)
    elif kind == "pure":
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec /= np.linalg.norm(vec)
        arr = np.outer(vec, vec.conj())
    else:  # one block on a random part of the indices, one on the rest
        arr = np.zeros((dim, dim), dtype=complex)
        order = rng.permutation(dim)
        cut = 1 + int(rng.integers(dim - 1)) if dim > 1 else 1
        for part in (order[:cut], order[cut:]):
            if part.size:
                arr[np.ix_(part, part)] = _random_density_array(rng, part.size) * part.size / dim
    spec = SystemSpec(n=n, d=d, local_energies=tuple(map(float, range(d))), beta=1.0)
    return arr, spec


def dense_entropy(arr: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(arr)
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log(lam)).sum())


@settings(max_examples=80)
@given(drawn=dense_arrays(), seed=st.integers(0, 2 ** 32 - 1))
def test_a_dense_array_agrees_with_the_dense_references(drawn, seed):
    arr, spec = drawn
    given_bytes = arr.tobytes()
    rho = DensityMatrix(arr)
    assert rho.entries.tobytes() == given_bytes
    assert not rho.entries.flags.writeable and not np.shares_memory(rho.entries, arr)
    np.testing.assert_array_equal(rho.diagonal, arr.diagonal().real)
    spectrum = np.sort(np.linalg.eigvalsh(arr))[::-1]
    assert float(np.abs(state_eigenvalues(rho) - spectrum).max()) <= 1e-12
    assert abs(von_neumann_entropy(rho) - dense_entropy(arr)) <= 1e-10
    for keep in range(1, spec.n + 1):
        reduced = partial_trace_to(rho, spec, keep).entries
        assert float(np.abs(reduced - dense_partial_trace(arr, spec, keep)).max()) <= 1e-12
    # a dense unitary's product is a new matrix, sharing nothing with its inputs
    unitary = random_unitary(np.random.default_rng(seed), spec.dim)
    out = apply_unitary(rho, unitary)
    assert not np.shares_memory(out.entries, rho.entries)
    assert not np.shares_memory(out.entries, unitary)
    product = unitary @ arr @ unitary.conj().T
    assert float(np.abs(out.entries - product).max()) <= 1e-12
    assert rho.entries.tobytes() == given_bytes


@pytest.mark.parametrize("entries", [[[1.5, 0.1], [0.1, -0.5]], [[1.5, 0.0], [0.0, -0.5]],
                                     [[1.5, 0.1j], [-0.1j, -0.5]]])
def test_a_negative_population_is_refused_at_construction_on_or_off_the_diagonal(entries):
    # a coherence must not defer the refusal to the spectrum ("eigenvalue -5.050e-01")
    with pytest.raises(ValidityError, match=r"population -5\.000e-01 below -1e-10"):
        DensityMatrix(entries)


def test_a_population_just_above_minus_1e10_builds():
    rho = DensityMatrix([[1.0 + 5e-11, 1e-12], [1e-12, -5e-11]])
    assert rho.diagonal[1] == -5e-11


def former_random_density_array(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return mat / mat.trace()


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 9, 16, 27, 64, 81, 243, 256])
def test_random_draws_keep_their_bytes(dim):
    for seed in (0, 1, 7, 20240817):
        drawn = _random_density_array(np.random.default_rng(seed), dim)
        expected = former_random_density_array(np.random.default_rng(seed), dim)
        assert drawn.tobytes() == expected.tobytes(), seed


def spy_add_at(monkeypatch) -> list:
    """Record the target shape of every np.add.at call; np.add is otherwise itself."""
    calls = []
    add = np.add

    class Spy:
        def __call__(self, *args, **kwargs):
            return add(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(add, name)

        def at(self, target, *args):
            calls.append(target.shape)
            return add.at(target, *args)

    monkeypatch.setattr(np, "add", Spy())
    return calls


def test_dense_mutual_information_at_n10_adds_no_entry_and_stays_within_1_mb(monkeypatch):
    spec = SystemSpec.qubits(10, 1.0)
    rho = DensityMatrix(_random_density_array(np.random.default_rng(10), spec.dim))
    state_eigenvalues(rho)  # the spectrum is not the marginals' cost
    calls = spy_add_at(monkeypatch)
    tracemalloc.start()
    try:
        value = mutual_information_multipartite(rho, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == []
    # one dim x dim boolean mask alone is 1 MB; the block walk peaked at 9 MB
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"
    assert math.isfinite(value) and value >= 0.0


def test_entries_of_a_dense_state_allocate_nothing():
    dim = 256
    rho = DensityMatrix(_random_density_array(np.random.default_rng(8), dim))
    tracemalloc.start()
    try:
        entries = rho.entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dim, peak  # a dim x dim array is 1 MB complex, 64 kB as bytes
    assert entries is rho.entries
