"""States stored as populations plus coherence blocks: agreement with the dense matrix, memory."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergokit import (
    Bipartition,
    CapacityError,
    DensityMatrix,
    DomainError,
    InfeasibilityError,
    StructuredUnitary,
    SystemSpec,
    ValidityError,
    apply_unitary,
    build_hamiltonian,
    diagonal_state_at_entropy,
    dicke_thermal_mixture,
    entangled_pure_state,
    ergotropy,
    is_passive,
    level_inversion_unitary,
    measure_bias,
    min_pt_eigenvalue,
    mutual_information_multipartite,
    pair_rotation_unitary,
    partial_trace_to,
    passive_state,
    product_thermal_state,
    separable_optimal_state,
    state_eigenvalues,
    thermal_entropy,
    thermal_state,
    von_neumann_entropy,
)
from ergokit import analysis, cli, core
from ergokit.verify import random_density_matrix
from dense_oracle import dense_partial_trace
from strategies import specs, structured_states


def dense_rotation(arr: np.ndarray, unitary: StructuredUnitary) -> np.ndarray:
    """U arr U^dagger one rotation at a time: every row pair, then every column pair."""
    out = np.array(arr)
    trig = [(a, b, math.cos(t), math.sin(t)) for a, b, t in unitary.rotations]
    for a, b, c, s in trig:
        row_a, row_b = out[a].copy(), out[b].copy()
        out[a] = c * row_a + s * row_b
        out[b] = -s * row_a + c * row_b
    for a, b, c, s in trig:
        col_a, col_b = out[:, a].copy(), out[:, b].copy()
        out[:, a] = c * col_a + s * col_b
        out[:, b] = -s * col_a + c * col_b
    return out


def dense_is_passive(arr: np.ndarray, energies: np.ndarray) -> bool:
    """Coherence only inside energy shells, and shell spectra falling with energy."""
    order = np.argsort(energies, kind="stable")
    steps = np.diff(energies[order]) > 1e-9
    label = np.empty(energies.size, dtype=int)
    label[order] = np.concatenate([[0], np.cumsum(steps)])
    if np.abs(arr)[label[:, None] != label[None, :]].max(initial=0.0) > 1e-10:
        return False
    seq = np.concatenate([np.sort(np.linalg.eigvalsh(arr[np.ix_(shell, shell)]))[::-1]
                          for shell in np.split(order, np.flatnonzero(steps) + 1)])
    return bool(np.all(np.diff(seq) <= 1e-12))


@settings(max_examples=120)
@given(drawn=structured_states())
def test_parts_agree_with_the_dense_matrix(drawn):
    rho, spec = drawn
    dense = rho.entries
    spectrum = np.sort(np.linalg.eigvalsh(dense))[::-1]
    assert not rho.populations.flags.writeable
    assert not any(a.flags.writeable for group in rho.groups for a in group)
    # the same state given as a dense array (one block unless it is diagonal)
    # and held as one dense block
    one_block = DensityMatrix(core._single_block(dense))
    for state in (rho, DensityMatrix(dense), one_block):
        assert float(np.abs(state_eigenvalues(state) - spectrum).max()) <= 1e-12
        np.testing.assert_array_equal(state.diagonal, dense.diagonal().real)
        for keep in range(1, spec.n + 1):
            reduced = partial_trace_to(state, spec, keep).entries
            assert float(np.abs(reduced - dense_partial_trace(dense, spec, keep)).max()) <= 1e-12
    # both forms sum a marginal's populations in the same order
    for keep in range(1, spec.n + 1):
        np.testing.assert_array_equal(partial_trace_to(rho, spec, keep).diagonal,
                                      partial_trace_to(one_block, spec, keep).diagonal)


def per_site_marginal(rho: DensityMatrix, spec: SystemSpec, keep: int) -> np.ndarray:
    """One site's reduced state, summed as partial_trace_to summed it site by site."""
    d = spec.d
    left = d ** (keep - 1)
    right = d ** (spec.n - keep)
    out = np.zeros((d, d), dtype=complex)
    by_digit = rho.diagonal.reshape(left, d, right).transpose(1, 0, 2).reshape(d, -1)
    np.fill_diagonal(out, by_digit.sum(axis=1))
    for index, values in rho.groups:
        digit = index // right % d
        rest = index - digit * right
        link = (rest[:, :, None] == rest[:, None, :]) & (digit[:, :, None] != digit[:, None, :])
        rows, cols = np.broadcast_arrays(digit[:, :, None], digit[:, None, :])
        np.add.at(out, (rows[link], cols[link]), values[link])
    return out


def qutrit_states():
    """d = 3 states: the entangled family, and callers' dense arrays, one of two disjoint parts."""
    spec = SystemSpec(n=3, d=3, local_energies=(0.0, 1.0, 1.7), beta=1.0)
    rng = np.random.default_rng(5)
    split = np.zeros((spec.dim, spec.dim), dtype=complex)
    for part in np.array_split(rng.permutation(spec.dim), [10]):
        split[np.ix_(part, part)] = random_density_matrix(rng, part.size).entries / 2
    return [(entangled_pure_state(spec), spec), (DensityMatrix(split), spec),
            (random_density_matrix(rng, spec.dim), spec)]


@settings(max_examples=120)
@given(drawn=structured_states() | st.sampled_from(qutrit_states()),
       slab=st.sampled_from([core._SLAB, 1, 7]))
def test_marginals_and_mutual_information_equal_the_per_site_sums_bit_for_bit(drawn, slab):
    rho, spec = drawn
    sites = range(1, spec.n + 1)
    expected = [per_site_marginal(rho, spec, keep) for keep in sites]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_SLAB", slab)  # 1 and 7 walk the sites in chunks
        marginals = core._marginals(rho, spec, sites)
    assert marginals.tobytes() == np.stack(expected).tobytes()
    for keep in sites:
        assert partial_trace_to(rho, spec, keep).entries.tobytes() == expected[keep - 1].tobytes()
    per_site = sum(von_neumann_entropy(DensityMatrix(core._single_block(marginal)))
                   for marginal in expected)
    value = mutual_information_multipartite(rho, spec)
    assert value == float(per_site - von_neumann_entropy(rho))


def test_a_marginal_below_minus_1e10_still_raises():
    # populations 0.45, 0.45, 0.05, 0.05 with coherence 0.4 on |00>, |10>: the
    # first site's marginal [[0.9, 0.4], [0.4, 0.1]] has eigenvalue 0.5 - sqrt(0.32)
    spec = SystemSpec.qubits(2, 1.0)
    block = np.array([[[0.45, 0.4], [0.4, 0.05]]], dtype=complex)
    rho = DensityMatrix(core._Parts(np.array([0.0, 0.45, 0.0, 0.05]),
                                    [(np.array([[0, 2]]), block)]))
    with pytest.raises(ValidityError, match=r"eigenvalue -6\.569e-02 below"):
        mutual_information_multipartite(rho, spec)


def shell_states(n: int) -> list:
    """The Dicke mixture, rotated and shell-inverted, and a rotated product: groups over _SLAB."""
    spec = SystemSpec.qubits(n, 0.7)
    dicke = dicke_thermal_mixture(spec)
    product = product_thermal_state(spec, 1.3)
    level = level_inversion_unitary(spec, (n - 1) // 2)
    return [dicke, apply_unitary(dicke, pair_rotation_unitary(spec, 0.3)),
            apply_unitary(dicke, level), apply_unitary(product, level),
            apply_unitary(product, pair_rotation_unitary(spec, 0.4)),
            random_density_matrix(np.random.default_rng(n), 2 ** min(n, 8))]


@pytest.mark.parametrize("n", [8, 10, 11])
def test_marginals_of_large_groups_equal_the_per_site_sums_bit_for_bit(n):
    # groups over _SLAB entries drop the blocks with no pair differing at the site
    for rho in shell_states(n):
        spec = SystemSpec.qubits(round(math.log2(rho.dim)), 0.7)
        sites = range(1, spec.n + 1)
        expected = np.stack([per_site_marginal(rho, spec, keep) for keep in sites])
        assert core._marginals(rho, spec, sites).tobytes() == expected.tobytes()


def test_dicke_mutual_information_at_n12_stays_within_1_mb():
    spec = SystemSpec.qubits(12, 0.7)
    rho = dicke_thermal_mixture(spec)
    state_eigenvalues(rho)  # the spectrum is not the marginals' cost
    tracemalloc.start()
    try:
        mutual_information_multipartite(rho, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"  # 11 MB walking every entry


@settings(max_examples=120)
@given(drawn=structured_states(), data=st.data())
def test_is_passive_agrees_with_the_dense_matrix(drawn, data):
    rho, spec = drawn
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    energies = rng.integers(0, 3, rho.dim).astype(float)
    if data.draw(st.booleans()):
        # every block inside one shell, so passivity turns on the shell spectra
        for index, _ in rho.groups:
            energies[index] = energies[index[:, :1]]
    expected = dense_is_passive(rho.entries, energies)
    one_block = DensityMatrix(core._single_block(rho.entries))
    for state in (rho, DensityMatrix(rho.entries), one_block):
        assert is_passive(state, energies) == expected
        assert is_passive(passive_state(state, energies), energies)


@settings(max_examples=120)
@given(drawn=structured_states(), data=st.data())
def test_pair_rotations_agree_with_dense_conjugation(drawn, data):
    rho, _ = drawn
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    blocks = [list(row) for index, _ in rho.groups for row in index]
    in_block = {i for block in blocks for i in block}
    free = [i for i in range(rho.dim) if i not in in_block]
    pairs, taken = [], set()

    def take(a, b):
        if a != b and not {a, b} & taken:
            pairs.append((a, b))
            taken.update((a, b))

    if len(free) >= 2:
        take(free[0], free[1])  # free with free
    sized = [block for block in blocks if len(block) >= 2]
    if sized:
        take(sized[0][0], sized[0][1])  # inside one block
    if len(blocks) >= 2:
        take(blocks[-1][-1], blocks[-2][-1])  # merging two blocks
    rest = [int(i) for i in rng.permutation(rho.dim) if i not in taken]
    extra = data.draw(st.integers(0, len(rest) // 2))
    pairs += [(rest[2 * k], rest[2 * k + 1]) for k in range(extra)]
    angles = rng.choice([np.pi / 2, 0.0, -np.pi / 2, rng.uniform(-7.0, 7.0)], len(pairs))
    unitary = StructuredUnitary([(a, b, t) for (a, b), t in zip(pairs, angles)], rho.dim)
    out = apply_unitary(rho, unitary)
    mat = unitary.materialize()
    assert float(np.abs(out.entries - mat @ rho.entries @ mat.conj().T).max()) <= 1e-12
    # the block update repeats a dense per-rotation update's arithmetic, for the
    # state's own blocks, for the same state given as a dense array and for it
    # held as one dense block
    expected = dense_rotation(rho.entries, unitary)
    np.testing.assert_array_equal(out.entries, expected)
    np.testing.assert_array_equal(apply_unitary(DensityMatrix(rho.entries), unitary).entries,
                                  expected)
    one_block = DensityMatrix(core._single_block(rho.entries))
    np.testing.assert_array_equal(apply_unitary(one_block, unitary).entries, expected)


@settings(max_examples=60)
@given(spec=specs(max_dim=256))
@example(spec=SystemSpec(n=4, d=2, local_energies=(0.0, 0.0), beta=30.0))
@example(spec=SystemSpec(n=3, d=2, local_energies=(0.0, 1.0), beta=0.0))
@example(spec=SystemSpec(n=5, d=2, local_energies=(0.0, 1.0), beta=30.0))
def test_family_marginals_are_thermal(spec):
    tau = thermal_state(spec).entries
    states = {"product": product_thermal_state(spec)}
    if spec.n >= 2:
        states["entangled"] = entangled_pure_state(spec)
        states["separable"] = separable_optimal_state(spec)
    if spec.d == 2:
        states["dicke"] = dicke_thermal_mixture(spec)
        try:
            states["fixed-entropy"] = diagonal_state_at_entropy(
                spec, thermal_entropy(spec) + 0.3)[0]
        except (DomainError, InfeasibilityError):  # above n S(tau_beta), or refused
            pass
    for name, state in states.items():
        for keep in range(1, spec.n + 1):
            gap = float(np.abs(partial_trace_to(state, spec, keep).entries - tau).max())
            assert gap <= 1e-12, f"{name}: marginal {keep} off thermal by {gap}"


def package_states(spec: SystemSpec) -> dict:
    start = product_thermal_state(spec, 1.5)
    return {
        "separable": separable_optimal_state(spec),
        "entangled": entangled_pure_state(spec),
        "dicke": dicke_thermal_mixture(spec),
        "fixed-entropy": diagonal_state_at_entropy(spec, thermal_entropy(spec) + 0.5)[0],
        "rotated": apply_unitary(start, pair_rotation_unitary(spec, 0.4)),
        "inverted": apply_unitary(start, level_inversion_unitary(spec, 1)),
    }


def test_package_states_never_build_a_dense_matrix(monkeypatch):
    spec = SystemSpec.qubits(6, 1.0)
    # one byte short of a dense matrix: every array the package sizes must be smaller
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 16 * spec.dim ** 2 - 1)
    ham = build_hamiltonian(spec)
    for name, state in package_states(spec).items():
        von_neumann_entropy(state)
        ergotropy(state, ham, spec)
        is_passive(state, ham)
        is_passive(passive_state(state, ham), ham)
        mutual_information_multipartite(state, spec)
        measure_bias(state, spec)
        min_pt_eigenvalue(state, spec, Bipartition.half_split(spec.n))
        with pytest.raises(CapacityError):
            state.entries


def test_states_at_n12_stay_within_16_mb():
    spec = SystemSpec.qubits(12, 1.0)
    ham = build_hamiltonian(spec)
    tracemalloc.start()
    try:
        for state in (separable_optimal_state(spec), entangled_pure_state(spec),
                      apply_unitary(product_thermal_state(spec, 1.5),
                                    pair_rotation_unitary(spec, 0.4))):
            ergotropy(state, ham)
            measure_bias(state, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_dense_arrays_are_sized_before_they_are_built(monkeypatch):
    spec = SystemSpec.qubits(9, 1.0)
    state = entangled_pure_state(spec)
    dense = DensityMatrix(state.entries)
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 16 * spec.dim ** 2 - 1)
    for rho in (state, dense):
        with pytest.raises(CapacityError):
            rho.entries
    with pytest.raises(CapacityError):
        apply_unitary(state, np.eye(spec.dim))
    with pytest.raises(CapacityError):
        pair_rotation_unitary(spec, 0.3).materialize()
    # the partial transpose sizes its moved entries (4 of them here, as one
    # 2 x 2 block) before it builds them, and its component blocks after
    half = Bipartition.half_split(spec.n)
    for limit, what in ((0, "moved entries"), (4 * analysis._PT_ENTRY_BYTES, "components")):
        monkeypatch.setattr(core, "DENSE_BYTES_MAX", limit)
        with pytest.raises(CapacityError, match=what):
            min_pt_eigenvalue(state, spec, half)
    # that of a diagonal state sizes no array, so the least limit that admits
    # the state's vectors (64 bytes an index) still fills its column; a sweep
    # cell over the limit keeps its row, with the partial-transpose column
    # blank and the reason in the note: the Dicke mixture's shell blocks
    # (16 bytes an entry) fit where its moved entries (48 bytes) do not
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 64 * 2 ** 8)
    row, = cli.sweep_rows(cli.SweepConfig(family="separable", n_values=(8,), include_ppt=True))
    assert row["status"] == "ok" and row["ppt_min_eig"] == 0.0
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 16 * math.comb(16, 8))
    row, = cli.sweep_rows(cli.SweepConfig(family="dicke", n_values=(8,), include_ppt=True))
    assert row["status"] == "ok" and "ppt_min_eig" not in row and "bytes" in row["note"]
    assert row["ergotropy"] > 0.0
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 16 * spec.dim ** 2)
    assert state.entries.shape == (spec.dim, spec.dim)


def test_pair_rotation_of_a_dense_state_at_n11_stays_within_128_mb():
    spec = SystemSpec.qubits(11, 1.0)
    rotation = pair_rotation_unitary(spec, 0.4)
    dense = apply_unitary(product_thermal_state(spec, 1.5), rotation).entries
    rho = DensityMatrix(core._single_block(dense))
    tracemalloc.start()
    try:
        out = apply_unitary(rho, rotation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense block itself is 64 MB
    assert peak < 128 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    # two rotations by 0.4 are one by 0.8: the bias law z = cos(1.6) z'
    bias_prime = measure_bias(product_thermal_state(spec, 1.5), spec)
    assert abs(measure_bias(out, spec) - math.cos(1.6) * bias_prime) <= 1e-12
