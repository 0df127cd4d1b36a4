"""States stored by class, and the level tables their energies are read against.

The separable, entangled and fixed-entropy states, the inversion chain
and the pair-rotated product are records of class populations and
blocks; each quantity read from the record equals the same quantity of
its expanded parts, and the expanded parts equal the full-basis vectors
the constructors used to build.  A spec passed as the Hamiltonian is
read as its level table, and gives what its basis energy vector gives.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ergokit import (
    Bipartition,
    DensityMatrix,
    DomainError,
    InfeasibilityError,
    ShapeError,
    SystemSpec,
    UnsupportedError,
    apply_unitary,
    build_hamiltonian,
    cli,
    core,
    diagonal_state_at_entropy,
    ergotropy,
    families,
    free_energy,
    inversion_sequence_to_bias,
    is_passive,
    measure_bias,
    min_pt_eigenvalue,
    pair_rotation_unitary,
    passive_state,
    prepare_locally_thermal,
    product_thermal_state,
    protocols,
    state_eigenvalues,
    thermal_params,
    von_neumann_entropy,
)
from ergokit.core import _hamming_weights, _Levels, _marginals, _Parts
from ergokit.verify import random_density_matrix
from dense_oracle import dense_partial_trace, gibbs_weighted_superposition
from strategies import BETAS, specs

# largest full basis drawn for qudits, so a qudit draw stays a small state
QUDIT_DIM_MAX = 4096


def as_parts(rho: DensityMatrix) -> DensityMatrix:
    """rho in parts form: copies of its expanded populations and groups."""
    groups = [(index.copy(), np.array(values)) for index, values in rho.groups]
    return DensityMatrix(_Parts(rho.populations.copy(), groups))


def former_state(spec: SystemSpec, family: str, target=None) -> DensityMatrix:
    """The state as the constructors built it from 2^n vectors before the records."""
    pops = thermal_params(spec).populations
    if family == "entangled":
        return DensityMatrix.from_pure(gibbs_weighted_superposition(spec))
    diag = np.zeros(spec.dim)
    if family == "separable":
        diag[np.arange(spec.d) * ((spec.dim - 1) // (spec.d - 1))] = pops
    else:
        params = diagonal_state_at_entropy(spec, target)[1]
        diag[0] += params.ground_weight
        diag[-1] += params.top_weight
        shell = params.shell_excitations
        diag[_hamming_weights(spec.n) == shell] += params.shell_weight / math.comb(spec.n, shell)
    return DensityMatrix.from_diagonal(diag)


def assert_record_matches_its_parts(rho: DensityMatrix, spec: SystemSpec, former: DensityMatrix):
    parts = as_parts(rho)
    np.testing.assert_array_equal(parts.populations, former.populations)
    assert len(parts.groups) == len(former.groups)
    for (index, values), (old_index, old_values) in zip(parts.groups, former.groups):
        np.testing.assert_array_equal(index, old_index)
        np.testing.assert_array_equal(values, old_values)
    np.testing.assert_allclose(state_eigenvalues(rho), state_eigenvalues(parts),
                               rtol=0.0, atol=1e-12)
    assert von_neumann_entropy(rho) == pytest.approx(von_neumann_entropy(parts), abs=1e-12)
    scale = max(1.0, spec.n * spec.local_energies[-1])
    by_class = ergotropy(rho, spec)
    by_index = ergotropy(parts, build_hamiltonian(spec))
    for field in ("initial_energy", "passive_energy", "ergotropy"):
        assert getattr(by_class, field) == pytest.approx(getattr(by_index, field),
                                                         abs=1e-12 * scale), field
    passive = passive_state(rho, spec).diagonal @ build_hamiltonian(spec)
    assert passive == pytest.approx(by_index.passive_energy, abs=1e-12 * scale)
    sites = range(1, spec.n + 1)
    np.testing.assert_allclose(_marginals(rho, spec, sites), _marginals(parts, spec, sites),
                               rtol=0.0, atol=1e-12)
    split = Bipartition.half_split(spec.n)
    assert min_pt_eigenvalue(rho, spec, split) == pytest.approx(
        min_pt_eigenvalue(parts, spec, split), abs=1e-12)


@st.composite
def record_specs(draw):
    """n <= 12 qubits, or d = 3, 4 with d^n <= QUDIT_DIM_MAX; ladders with gaps of 0 too."""
    d = draw(st.sampled_from([2, 2, 3, 4]))
    n_max = 12 if d == 2 else int(math.log(QUDIT_DIM_MAX, d) + 1e-9)
    n = draw(st.integers(2, n_max))
    gaps = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0),
                         min_size=d - 1, max_size=d - 1))
    ladder = (0.0,) + tuple(np.cumsum(gaps).tolist())
    return SystemSpec(n=n, d=d, local_energies=ladder, beta=draw(BETAS))


@settings(max_examples=40, deadline=None)
@given(spec=record_specs(), family=st.sampled_from(["entangled", "separable"]))
@example(spec=SystemSpec(n=12, d=2, local_energies=(0.0, 1.0), beta=30.0), family="entangled")
@example(spec=SystemSpec(n=6, d=4, local_energies=(0.0, 0.0, 1.0, 2.5), beta=0.0),
         family="separable")
def test_separable_and_entangled_records_equal_their_parts(spec, family):
    rho = cli.build_family_state(spec, family)
    assert rho._record is not None
    assert_record_matches_its_parts(rho, spec, former_state(spec, family))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), beta=BETAS, share=st.floats(0.0, 1.0))
@example(n=12, beta=30.0, share=0.0)
@example(n=10, beta=0.0, share=0.5)
def test_fixed_entropy_records_equal_their_parts(n, beta, share):
    spec = SystemSpec.qubits(n, beta)
    local = thermal_params(spec).entropy
    target = local + share * (n - 1) * local
    try:
        rho = diagonal_state_at_entropy(spec, target)[0]
    except InfeasibilityError:
        assume(False)  # a target the family does not reach (ROADMAP item 5)
    assert rho._record is not None
    assert_record_matches_its_parts(rho, spec, former_state(spec, "fixed-entropy", target))


@settings(max_examples=40, deadline=None)
@given(spec=record_specs())
def test_a_spec_level_table_holds_the_sorted_basis_energies(spec):
    levels = _Levels.of_spec(spec)
    assert levels.sizes.sum() == spec.dim
    assert np.all(np.diff(levels.energies) >= 0.0)
    energies = build_hamiltonian(spec)
    np.testing.assert_allclose(levels.ascending(), np.sort(energies), rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(levels.per_index(), energies, rtol=1e-15, atol=0.0)


def refuse_basis_energies(monkeypatch, dim: int):
    """Fail on any build_hamiltonian call, and on any sort of dim entries or more."""
    def refused(spec):
        raise AssertionError("built the basis Hamiltonian")

    def sized(sort):
        def spy(a, *args, **kwargs):
            assert np.size(a) < dim, f"sorted {np.size(a)} entries"
            return sort(a, *args, **kwargs)
        return spy

    monkeypatch.setattr(core, "build_hamiltonian", refused)
    monkeypatch.setattr(np, "sort", sized(np.sort))
    monkeypatch.setattr(np, "argsort", sized(np.argsort))


@pytest.mark.parametrize("family, n, d", [
    ("entangled", 10, 2), ("separable", 10, 2), ("fixed-entropy", 10, 2),
    ("entangled", 6, 3), ("separable", 6, 3),
])
def test_a_sweep_row_builds_and_sorts_no_basis_energy_vector(monkeypatch, family, n, d):
    refuse_basis_energies(monkeypatch, d ** n)
    row, = cli.sweep_rows(cli.SweepConfig(family=family, n_values=(n,), d=d,
                                          total_entropy=3.0 if family == "fixed-entropy" else None))
    assert row["status"] == "ok" and row["ergotropy"] > 0.0


# ---------------------------------------------------------------------------
# a spec as the Hamiltonian
# ---------------------------------------------------------------------------

def states_of(spec: SystemSpec, seed: int) -> list:
    """Every family state the spec admits, the product and chain states, and a dense one."""
    states = [product_thermal_state(spec)]
    local = thermal_params(spec).entropy
    for family in cli.STATE_FAMILIES:
        try:
            states.append(cli.build_family_state(spec, family, (spec.n + 1) / 2 * local))
        except (DomainError, UnsupportedError, InfeasibilityError):
            pass  # n = 1, qudits, or a target the family does not reach (ROADMAP item 5)
    if spec.d == 2:
        states.append(inversion_sequence_to_bias(spec, 1.0, 0.0).state)
        states.append(prepare_locally_thermal(spec, 1.0, 0.3 * thermal_params(spec, 1.0).bias)
                      .state)
    states.append(random_density_matrix(np.random.default_rng(seed), spec.dim))
    return states


@settings(max_examples=60, deadline=None)
@given(spec=specs(max_dim=256), seed=st.integers(0, 2 ** 32 - 1))
@example(spec=SystemSpec.qubits(8, 30.0), seed=0)
@example(spec=SystemSpec(n=3, d=3, local_energies=(0.0, 1.0, 2.5), beta=0.0), seed=1)
@example(spec=SystemSpec(n=4, d=4, local_energies=(0.0, 0.0, 1.0, 1.0), beta=30.0), seed=2)
def test_a_spec_gives_what_its_energy_vector_gives(spec, seed):
    ham = build_hamiltonian(spec)
    tol = 1e-13 * max(1.0, spec.n * spec.local_energies[-1])
    for rho in states_of(spec, seed):
        by_spec, by_vector = ergotropy(rho, spec), ergotropy(rho, ham)
        for field in ("initial_energy", "passive_energy", "ergotropy"):
            assert abs(getattr(by_spec, field) - getattr(by_vector, field)) <= tol, field
        passive = passive_state(rho, spec)
        np.testing.assert_array_equal(passive.diagonal, passive_state(rho, ham).diagonal)
        assert is_passive(rho, spec) == is_passive(rho, ham)
        assert is_passive(passive, spec) and is_passive(passive, ham)
        assert abs(free_energy(rho, spec, 1.0) - free_energy(rho, ham, 1.0)) <= tol


@pytest.mark.parametrize("family, n, d", [
    ("entangled", 10, 2), ("separable", 10, 2), ("fixed-entropy", 10, 2), ("protocol", 10, 2),
    ("entangled", 6, 3), ("separable", 6, 3),
])
def test_ergotropy_against_a_spec_builds_and_sorts_no_basis_energy_vector(monkeypatch,
                                                                          family, n, d):
    spec = SystemSpec(n=n, d=d, local_energies=tuple(range(d)), beta=1.0)
    if family == "protocol":
        rho = inversion_sequence_to_bias(spec, 1.0, -0.3).state
    else:
        rho = cli.build_family_state(spec, family, 3.0)
    assert rho._record is not None
    refuse_basis_energies(monkeypatch, spec.dim)
    report = ergotropy(rho, spec)
    assert report.ergotropy > 0.0 and report.bound_total_energy is not None


def test_a_spec_of_another_dimension_is_refused():
    rho = product_thermal_state(SystemSpec.qubits(3, 0.7))
    for other in (SystemSpec.qubits(4, 0.7), SystemSpec.qubits(20000, 0.7),
                  SystemSpec(n=2, d=3, local_energies=(0.0, 1.0, 2.0), beta=0.7)):
        for call in (ergotropy, passive_state, is_passive, lambda r, h: free_energy(r, h, 1.0)):
            with pytest.raises(ShapeError):
                call(rho, other)


def test_a_spec_as_the_hamiltonian_fills_the_bounds_as_spec_does():
    spec = SystemSpec(n=3, d=3, local_energies=(0.0, 0.4, 1.5), beta=0.9)
    rho = cli.build_family_state(spec, "entangled")
    ham = build_hamiltonian(spec)
    for entropy in (None, 1.2):
        by_spec = ergotropy(rho, spec, total_entropy=entropy)
        by_vector = ergotropy(rho, ham, spec, total_entropy=entropy)
        assert by_spec.bound_total_energy == by_vector.bound_total_energy
        assert by_spec.bound_entropy == by_vector.bound_entropy
        assert (by_spec.bound_entropy is None) == (entropy is None)
        assert by_spec.ratio_to_bound == pytest.approx(by_vector.ratio_to_bound, abs=1e-13)
    # an explicit spec= keeps its meaning: the bounds are its own
    hotter = SystemSpec(n=3, d=3, local_energies=(0.0, 0.4, 1.5), beta=0.2)
    assert ergotropy(rho, spec, hotter).bound_total_energy \
        == ergotropy(rho, ham, hotter).bound_total_energy \
        != ergotropy(rho, spec).bound_total_energy
    assert ergotropy(rho, ham).bound_total_energy is None


# ---------------------------------------------------------------------------
# the pair-rotated product, and the class-sum marginals of every record
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), beta_prime=st.sampled_from([0.0, 30.0]) | st.floats(0.0, 30.0),
       fraction=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0))
@example(n=12, beta_prime=1.0, fraction=0.3)
@example(n=11, beta_prime=30.0, fraction=-1.0)
@example(n=10, beta_prime=0.0, fraction=0.0)
@example(n=1, beta_prime=2.0, fraction=0.5)
def test_the_rotated_record_equals_the_rotated_product(n, beta_prime, fraction):
    spec = SystemSpec.qubits(n, 1.0)
    result = prepare_locally_thermal(spec, beta_prime,
                                     fraction * thermal_params(spec, beta_prime).bias)
    rho = result.state
    assert rho._record is not None
    oracle = apply_unitary(product_thermal_state(spec, beta_prime),
                           pair_rotation_unitary(spec, result.angle))

    def near(a, b):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    # the expanded parts hold the oracle's pairs, rows ascending, in its order
    near(rho.populations, oracle.populations)
    (index, values), = rho.groups
    (oracle_index, oracle_values), = oracle.groups
    np.testing.assert_array_equal(index, oracle_index)
    near(values, oracle_values)
    if spec.dim <= 1024:
        near(rho.entries, oracle.entries)
    near(state_eigenvalues(rho), state_eigenvalues(oracle))
    near(von_neumann_entropy(rho), von_neumann_entropy(oracle))
    ham = build_hamiltonian(spec)
    expected = ergotropy(oracle, ham)
    for report in (ergotropy(rho, spec), ergotropy(rho, ham)):
        for field in ("initial_energy", "passive_energy", "ergotropy"):
            near(getattr(report, field), getattr(expected, field))
    sites = range(1, n + 1)
    near(_marginals(rho, spec, sites), _marginals(oracle, spec, sites))
    near([measure_bias(rho, spec, site) for site in sites],
         [measure_bias(oracle, spec, site) for site in sites])
    if n >= 2:
        split = Bipartition.half_split(n)
        near(min_pt_eigenvalue(rho, spec, split), min_pt_eigenvalue(oracle, spec, split))


def test_prepare_locally_thermal_builds_and_sorts_no_basis_vector(monkeypatch):
    def refused(*args):
        raise AssertionError("built a 2^n vector")

    spec = SystemSpec.qubits(12, 1.0)
    refuse_basis_energies(monkeypatch, spec.dim)
    monkeypatch.setattr(families, "product_thermal_state", refused)
    monkeypatch.setattr(core, "apply_unitary", refused)
    for module in (core, protocols):
        monkeypatch.setattr(module, "_hamming_weights", refused)
    # nor names of their own for the product or the rotation
    assert not hasattr(protocols, "product_thermal_state")
    assert not hasattr(protocols, "apply_unitary")
    result = prepare_locally_thermal(spec, 1.0, -0.3)
    assert result.state._record is not None and result.residual <= 1e-15


def record_states(n: int) -> list:
    """(state, spec) for every record kind defined at n: entangled and separable at d = 2
    and 3 (d = 3 up to n = 6), fixed-entropy, the inversion chain and the rotated product."""
    qubits = SystemSpec.qubits(n, 0.8)
    states = [(inversion_sequence_to_bias(qubits, 1.3, -0.2).state, qubits),
              (prepare_locally_thermal(qubits, 1.3, -0.2).state, qubits),
              (prepare_locally_thermal(qubits, 0.4, 0.1).state, qubits)]
    if n >= 2:
        local = thermal_params(qubits).entropy
        states.append((diagonal_state_at_entropy(qubits, 1.05 * local)[0], qubits))
        qutrits = SystemSpec(n=n, d=3, local_energies=(0.0, 1.0, 1.7), beta=0.8)
        for spec in (qubits, qutrits) if n <= 6 else (qubits,):
            states += [(cli.build_family_state(spec, family), spec)
                       for family in ("entangled", "separable")]
    return states


@pytest.mark.parametrize("n", range(1, 9))
def test_record_marginals_are_the_dense_partial_trace(n):
    for rho, spec in record_states(n):
        assert rho._record is not None
        sites = range(1, n + 1)
        expected = np.stack([dense_partial_trace(rho.entries, spec, site) for site in sites])
        np.testing.assert_allclose(_marginals(rho, spec, sites), expected, rtol=0.0, atol=1e-15)
