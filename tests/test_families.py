"""State-family constructors: marginals, spectra, entropies, feasibility."""

import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scan_oracle
from ergokit import (
    Bipartition,
    CapacityError,
    DensityMatrix,
    DomainError,
    ErgokitError,
    InfeasibilityError,
    SystemSpec,
    UnsupportedError,
    apply_unitary,
    build_hamiltonian,
    diagonal_state_at_entropy,
    dicke_index_set,
    dicke_thermal_mixture,
    entangled_pure_state,
    ergotropy,
    gibbs_weighted_superposition,
    is_passive,
    level_inversion_unitary,
    min_pt_eigenvalue,
    mutual_information_multipartite,
    pair_rotation_unitary,
    partial_trace_to,
    passive_state,
    product_thermal_state,
    separable_optimal_state,
    separable_work_limit,
    smallest_shell_for_entropy,
    state_eigenvalues,
    thermal_entropy,
    thermal_params,
    thermal_state,
    von_neumann_entropy,
)
from ergokit import cli, core, families

P1 = math.exp(-1.0) / (1.0 + math.exp(-1.0))


def assert_locally_thermal(state, spec, atol=1e-10):
    tau = thermal_state(spec)
    for k in range(1, spec.n + 1):
        marginal = partial_trace_to(state, spec, k)
        assert float(np.abs(marginal.entries - tau.entries).max()) <= atol


# ---------------------------------------------------------------------------
# entangled pure state
# ---------------------------------------------------------------------------

def test_pure_state_at_infinite_temperature_is_bell(qubit_pair):
    spec = SystemSpec.qubits(2, 0.0)
    state = entangled_pure_state(spec)
    vec = np.zeros(4)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    np.testing.assert_allclose(state.entries, np.outer(vec, vec), atol=1e-14)


def test_pure_state_rejects_single_subsystem():
    with pytest.raises(DomainError):
        entangled_pure_state(SystemSpec.qubits(1, 1.0))


def test_pure_state_top_amplitude():
    spec = SystemSpec.qubits(3, 1.0)
    state = entangled_pure_state(spec)
    assert abs(float(state.entries[7, 7].real) - P1) <= 1e-12
    assert abs(float(state.entries[7, 7].real) - 0.268941) <= 1e-6


def test_pure_state_is_pure_and_locally_thermal():
    for n, beta in ((2, 1.0), (3, 0.5), (5, 2.0)):
        spec = SystemSpec.qubits(n, beta)
        state = entangled_pure_state(spec)
        assert von_neumann_entropy(state) <= 1e-10
        assert_locally_thermal(state, spec)


def test_pure_state_qudit_marginals():
    spec = SystemSpec(n=2, d=3, local_energies=(0.0, 1.0, 2.2), beta=0.9)
    assert_locally_thermal(entangled_pure_state(spec), spec)


def test_pure_state_extracts_everything():
    for n in (2, 4, 6):
        spec = SystemSpec.qubits(n, 1.0)
        report = ergotropy(entangled_pure_state(spec), build_hamiltonian(spec), spec)
        assert abs(report.ergotropy - report.bound_total_energy) <= 1e-9


def test_gibbs_vector_is_normalized():
    spec = SystemSpec(n=3, d=3, local_energies=(0.0, 0.5, 1.5), beta=1.1)
    vec = gibbs_weighted_superposition(spec)
    assert abs(float((np.abs(vec) ** 2).sum()) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# separable optimum
# ---------------------------------------------------------------------------

def test_separable_state_at_infinite_temperature():
    spec = SystemSpec.qubits(2, 0.0)
    state = separable_optimal_state(spec)
    np.testing.assert_allclose(state.diagonal, [0.5, 0.0, 0.0, 0.5], atol=1e-14)


def test_separable_state_entropy_equals_local():
    spec = SystemSpec.qubits(5, 1.0)
    value = von_neumann_entropy(separable_optimal_state(spec))
    assert abs(value - thermal_entropy(spec)) <= 1e-10
    assert abs(value - 0.582203) <= 1e-5


def test_separable_state_is_dephased_pure_state():
    spec = SystemSpec.qubits(3, 1.0)
    dephased = np.diag(np.diag(entangled_pure_state(spec).entries))
    np.testing.assert_allclose(separable_optimal_state(spec).entries, dephased,
                               atol=1e-14)


def test_separable_state_locally_thermal():
    for spec in (SystemSpec.qubits(4, 0.7),
                  SystemSpec(n=3, d=3, local_energies=(0.0, 1.0, 1.8), beta=1.2)):
        assert_locally_thermal(separable_optimal_state(spec), spec)


def test_separable_strictly_below_entangled():
    for n in range(2, 8):
        for beta in (0.5, 1.0, 2.0):
            spec = SystemSpec.qubits(n, beta)
            ham = build_hamiltonian(spec)
            w_sep = ergotropy(separable_optimal_state(spec), ham).ergotropy
            w_ent = ergotropy(entangled_pure_state(spec), ham).ergotropy
            assert w_sep < w_ent - 1e-6


# ---------------------------------------------------------------------------
# product thermal
# ---------------------------------------------------------------------------

def test_product_thermal_infinite_temperature():
    spec = SystemSpec.qubits(3, 1.0)
    np.testing.assert_allclose(product_thermal_state(spec, 0.0).entries,
                               np.eye(8) / 8, atol=1e-14)


def test_product_thermal_energy_and_entropy_additive():
    spec = SystemSpec.qubits(4, 1.0)
    params = thermal_params(spec, 1.6)
    state = product_thermal_state(spec, 1.6)
    energy = float(state.diagonal @ build_hamiltonian(spec))
    assert abs(energy - 4 * params.mean_energy) <= 1e-10
    assert abs(von_neumann_entropy(state) - 4 * params.entropy) <= 1e-9


# ---------------------------------------------------------------------------
# Dicke mixture
# ---------------------------------------------------------------------------

def test_dicke_index_set_contents():
    shell = dicke_index_set(4, 2)
    assert list(shell) == [3, 5, 6, 9, 10, 12]
    assert len(shell) == math.comb(4, 2)
    assert not shell.flags.writeable
    with pytest.raises(DomainError):
        dicke_index_set(4, 5)


def test_dicke_mixture_single_qubit_is_thermal():
    spec = SystemSpec.qubits(1, 1.0)
    np.testing.assert_allclose(dicke_thermal_mixture(spec).entries,
                               thermal_state(spec).entries, atol=1e-14)


def test_dicke_mixture_spectrum_n2():
    spec = SystemSpec.qubits(2, 1.0)
    values = state_eigenvalues(dicke_thermal_mixture(spec))
    exact = sorted([(1 - P1) ** 2, 2 * P1 * (1 - P1), P1 ** 2, 0.0], reverse=True)
    np.testing.assert_allclose(values, exact, atol=1e-12)


def test_dicke_mixture_rank_is_n_plus_one():
    for n in range(1, 11):
        spec = SystemSpec.qubits(n, 1.0)
        values = state_eigenvalues(dicke_thermal_mixture(spec))
        assert int((values > 1e-12).sum()) == n + 1


def test_dicke_mixture_matches_thermal_diagonal():
    for n in (2, 4, 7):
        spec = SystemSpec.qubits(n, 1.0)
        state = dicke_thermal_mixture(spec)
        np.testing.assert_allclose(state.diagonal,
                                   product_thermal_state(spec).diagonal, atol=1e-12)
        assert_locally_thermal(state, spec)


def test_dicke_blocks_equal_the_dense_gram_matrix_bit_for_bit():
    for n in range(1, 9):
        spec = SystemSpec.qubits(n, 0.8)
        p = thermal_params(spec).populations[1]
        rows = np.zeros((n + 1, spec.dim))
        for k in range(n + 1):
            rows[k, dicke_index_set(n, k)] = math.sqrt(p ** k * (1.0 - p) ** (n - k))
        np.testing.assert_array_equal(dicke_thermal_mixture(spec).entries, rows.T @ rows)


def test_dicke_mixture_rejects_qudits():
    spec = SystemSpec(n=2, d=3, local_energies=(0.0, 1.0, 2.0), beta=1.0)
    with pytest.raises(UnsupportedError):
        dicke_thermal_mixture(spec)


def test_dicke_blocks_are_sized_before_they_are_built(monkeypatch):
    # the shell blocks hold C(2n, n) complex entries: 205,888 bytes at n = 8
    spec = SystemSpec.qubits(8, 1.0)
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 16 * math.comb(16, 8) - 1)
    with pytest.raises(CapacityError, match="bytes"):
        dicke_thermal_mixture(spec)
    row, = cli.sweep_rows(cli.SweepConfig(family="dicke", n_values=(8,)))
    assert row["status"] == "infeasible" and "bytes" in row["note"]
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 16 * math.comb(16, 8))
    assert sum(values.size for _, values in dicke_thermal_mixture(spec).groups) == \
        math.comb(16, 8)


def _written_out(rho: DensityMatrix) -> DensityMatrix:
    """The same state with every block group's values written out in full."""
    groups = [(index, np.ascontiguousarray(values)) for index, values in rho.groups]
    return DensityMatrix(core._Parts(rho.populations.copy(), groups))


def _parts_bytes(rho: DensityMatrix) -> list:
    """Shapes and bytes of the populations and of every group's arrays."""
    arrays = [rho.populations] + [a for group in rho.groups for a in group]
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("beta", [0.0, 0.7, 30.0])
@pytest.mark.parametrize("n", range(2, 11))
def test_dicke_readers_agree_bit_for_bit_on_broadcast_and_written_out_blocks(n, beta):
    spec = SystemSpec.qubits(n, beta)
    view = dicke_thermal_mixture(spec)
    assert all(values.strides[1:] == (0, 0) for _, values in view.groups)
    full = _written_out(view)
    ham = build_hamiltonian(spec)
    half = Bipartition.half_split(n)
    sites = range(1, n + 1)
    for read in (lambda rho: state_eigenvalues(rho).tobytes(),
                 lambda rho: rho.diagonal.tobytes(),
                 lambda rho: rho.entries.tobytes(),
                 lambda rho: core._marginals(rho, spec, sites).tobytes(),
                 lambda rho: mutual_information_multipartite(rho, spec).hex(),
                 lambda rho: min_pt_eigenvalue(rho, spec, half).hex(),
                 lambda rho: _parts_bytes(passive_state(rho, ham)),
                 lambda rho: is_passive(rho, ham)):
        assert read(view) == read(full)
    unitaries = [pair_rotation_unitary(spec, 0.4)]
    unitaries += [level_inversion_unitary(spec, level) for level in range((n + 1) // 2)]
    for unitary in unitaries:
        assert _parts_bytes(apply_unitary(view, unitary)) == \
            _parts_bytes(apply_unitary(full, unitary))


def test_dicke_mixture_allocates_under_half_of_its_written_out_blocks():
    spec = SystemSpec.qubits(10, 0.7)
    written_out = 16 * math.comb(20, 10)  # 2.96 MB of shell blocks
    ham = build_hamiltonian(spec)
    # two unsolved states, so neither the spectrum nor ergotropy finds one cached
    steps = {"build": partial(dicke_thermal_mixture, spec),
             "spectrum": partial(state_eigenvalues, dicke_thermal_mixture(spec)),
             "ergotropy": partial(ergotropy, dicke_thermal_mixture(spec), ham, spec)}
    peaks = {}
    tracemalloc.start()
    try:
        for step, run in steps.items():
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run()
            peaks[step] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert all(peak < written_out / 2 for peak in peaks.values()), peaks


def test_dicke_block_values_are_read_only():
    rho = dicke_thermal_mixture(SystemSpec.qubits(6, 1.0))
    for _, values in rho.groups:
        with pytest.raises(ValueError):
            values[0, 0, 0] = 0.5


# ---------------------------------------------------------------------------
# shell selection and the fixed-entropy diagonal family
# ---------------------------------------------------------------------------

def test_shell_selection_examples():
    assert smallest_shell_for_entropy(8, 0.0) == 0
    assert smallest_shell_for_entropy(8, 2.0) == 1  # ln C(8,1) = 2.079 >= 2
    assert smallest_shell_for_entropy(8, 2.1) == 2  # ln 8 < 2.1 <= ln 28
    with pytest.raises(InfeasibilityError):
        smallest_shell_for_entropy(4, 2.0)
    with pytest.raises(DomainError):
        smallest_shell_for_entropy(8, -0.1)


def test_diagonal_family_at_minimum_entropy_recovers_mixture():
    spec = SystemSpec.qubits(6, 1.0)
    state, params = diagonal_state_at_entropy(spec, thermal_entropy(spec))
    assert params.shell_weight == 0.0
    assert abs(params.ground_weight - (1 - P1)) <= 1e-12
    assert abs(params.top_weight - P1) <= 1e-12
    np.testing.assert_allclose(state.entries,
                               separable_optimal_state(spec).entries, atol=1e-12)


def test_diagonal_family_self_consistency():
    spec = SystemSpec.qubits(8, 1.0)
    state, params = diagonal_state_at_entropy(spec, 2.0)
    # independent recomputation from the dense matrix
    assert abs(von_neumann_entropy(state) - 2.0) <= 1e-8
    assert_locally_thermal(state, spec)
    total = params.ground_weight + params.top_weight + params.shell_weight
    assert abs(total - 1.0) <= 1e-12
    marginal_excited = params.top_weight + params.shell_weight * params.shell_excitations / 8
    assert abs(marginal_excited - P1) <= 1e-12


def test_diagonal_family_rank_bound():
    for n, total in ((6, 1.4), (8, 2.4), (10, 3.0)):
        spec = SystemSpec.qubits(n, 1.0)
        state, params = diagonal_state_at_entropy(spec, total)
        shell_size = math.comb(n, params.shell_excitations)
        rank = int((state.diagonal > 1e-14).sum())
        assert rank <= 2 + shell_size


def test_diagonal_family_work_floor():
    spec = SystemSpec.qubits(8, 1.0)
    state, params = diagonal_state_at_entropy(spec, 2.0)
    work = ergotropy(state, build_hamiltonian(spec)).ergotropy
    floor = 8 * P1 - (params.shell_excitations + 1) * 1.0
    assert work > floor


def test_diagonal_family_infeasible_entropy():
    spec = SystemSpec.qubits(2, 1.0)
    with pytest.raises(InfeasibilityError):
        diagonal_state_at_entropy(spec, 2.0)


def test_diagonal_family_below_minimum_entropy():
    spec = SystemSpec.qubits(6, 1.0)
    with pytest.raises(DomainError):
        diagonal_state_at_entropy(spec, 0.3)


def test_a_target_just_below_a_zero_minimum_is_the_zero_entropy_state():
    # at beta E = 30 the minimum S(tau_beta) is below 1e-9, so a target under
    # zero passes the minimum check and is answered like S = 0
    spec = SystemSpec.qubits(2, 30.0)
    below, below_params = diagonal_state_at_entropy(spec, -9.709913687965982e-11)
    zero, zero_params = diagonal_state_at_entropy(spec, 0.0)
    assert below_params == zero_params
    assert below.populations.tobytes() == zero.populations.tobytes()


def test_diagonal_family_rejects_qudits():
    spec = SystemSpec(n=4, d=3, local_energies=(0.0, 1.0, 2.0), beta=1.0)
    with pytest.raises(UnsupportedError):
        diagonal_state_at_entropy(spec, 1.0)


def _solved(solve, spec, total):
    """The chosen weights as exact bits, or the error's type and message."""
    try:
        params = solve(spec, total)
    except ErgokitError as err:
        return type(err), str(err)
    weights = (params.ground_weight, params.top_weight, params.shell_weight)
    return [float(w).hex() for w in weights], params.shell_excitations


# offsets from a scanned value of f, around GAMMA_BISECTION_TOL and the array's slack
GRID_OFFSETS = [0.0, 1e-14, -1e-14, 1e-13, -1e-13, 1e-12, -1e-12, 1.1e-12, -1.1e-12, 1e-11]


def _skewed_xlnx(error: float):
    """families._xlnx_array moved by +-error, alternating along the grid."""
    exact = families._xlnx_array

    def xlnx(x):
        return exact(x) + error * (-1.0) ** np.arange(x.size)

    return xlnx


@settings(max_examples=300)
@given(n=st.integers(2, 14), beta=st.sampled_from([0.0, 30.0]) | st.floats(0.0, 30.0),
       where=st.floats(0.0, 1.0),
       on_grid=st.none() | st.tuples(st.floats(0.0, 1.0), st.sampled_from(GRID_OFFSETS)),
       array_error=st.sampled_from([0.0, 2e-14, -2e-14]))
@example(n=2, beta=0.0, where=0.5, on_grid=None, array_error=0.0)
@example(n=14, beta=30.0, where=0.5, on_grid=None, array_error=0.0)
@example(n=7, beta=30.0, where=0.0, on_grid=None, array_error=0.0)
@example(n=5, beta=2.0, where=0.0, on_grid=(0.5, 0.0), array_error=0.0)
@example(n=8, beta=1.0, where=0.4, on_grid=(1.0, 0.0), array_error=0.0)
def test_fixed_entropy_solve_equals_the_scalar_scan_bit_for_bit(n, beta, where, on_grid,
                                                                 array_error):
    # array_error stands in for a NumPy log that differs from math.log by
    # more than a few ulp; the scalar f still decides every answer
    spec = SystemSpec.qubits(n, beta)
    local = thermal_entropy(spec)
    low, high = local - 1e-10, n * local + 0.5
    total = low + where * (high - low)
    if on_grid is not None:
        # a target at a scanned value of f, where the array and math.log may disagree
        fraction, offset = on_grid
        try:
            shell = smallest_shell_for_entropy(n, max(total, 0.0))
        except InfeasibilityError:
            shell = n // 2
        p = thermal_params(spec).populations[1]
        hi = min(1.0, n * p / shell if shell else 1.0, n * (1.0 - p) / (n - shell))
        steps = math.ceil(hi / families.GAMMA_SCAN_STEP)
        g = min(round(fraction * steps) * families.GAMMA_SCAN_STEP, hi)
        total = families._shell_family_entropy(
            g, p, n, shell, math.log(math.comb(n, shell))) + offset
    expected = _solved(scan_oracle.diagonal_family_params, spec, total)
    with mock.patch.object(families, "_xlnx_array", _skewed_xlnx(array_error)):
        actual = _solved(lambda *a: diagonal_state_at_entropy(*a)[1], spec, total)
    assert actual == expected


def test_refused_range_takes_the_scalar_extremes_near_the_array_extremes():
    resid = {0.0: 1.0, 1.0: 2.0, 2.0: 2.0 + 4e-16, 3.0: -1e-15}.__getitem__
    grid = np.array([0.0, 1.0, 2.0, 3.0])
    approx = np.array([1.0, 2.0 + 8e-16, 2.0, 0.0])
    assert families._scalar_extremes(resid, grid, approx) == (-1e-15, 2.0 + 4e-16)


def test_fixed_entropy_solve_needs_few_scalar_evaluations(monkeypatch):
    calls = []
    scalar = families._shell_family_entropy

    def counted(gamma, *args):
        if not isinstance(gamma, np.ndarray):
            calls.append(gamma)
        return scalar(gamma, *args)

    # the reference imported its own _shell_family_entropy, so only the package is counted
    monkeypatch.setattr(families, "_shell_family_entropy", counted)
    counts = []
    for n in range(2, 15):
        for beta in (0.0, 0.3, 1.0, 2.0, 5.0, 30.0):
            spec = SystemSpec.qubits(n, beta)
            local = thermal_entropy(spec)
            for fraction in np.linspace(0.0, 1.0, 21):
                total = local + fraction * (n - 1) * local
                try:
                    scan_oracle.diagonal_family_params(spec, total)
                except InfeasibilityError:
                    continue
                del calls[:]
                diagonal_state_at_entropy(spec, total)
                counts.append(len(calls))
    assert len(counts) > 500, len(counts)
    assert max(counts) <= 64, max(counts)


# ---------------------------------------------------------------------------
# the separable mixture family
# ---------------------------------------------------------------------------

def test_mixture_family_work_and_entropy(rng):
    for k in range(40):
        n = int(rng.integers(2, 7))
        beta = float(rng.uniform(0.4, 2.0))
        spec = SystemSpec.qubits(n, beta)
        ham = build_hamiltonian(spec)
        t = 1.0 if k % 13 == 0 else float(rng.uniform())
        state = DensityMatrix(
            t * separable_optimal_state(spec).entries
            + (1 - t) * product_thermal_state(spec).entries
        )
        assert_locally_thermal(state, spec)
        work = ergotropy(state, ham).ergotropy
        limit = separable_work_limit(spec)
        assert work <= limit + 1e-9
        entropy = von_neumann_entropy(state)
        assert entropy >= thermal_entropy(spec) - 1e-12
        if t == 1.0:
            assert abs(work - limit) <= 1e-10
        else:
            assert work < limit
            assert entropy > thermal_entropy(spec) + 1e-12
