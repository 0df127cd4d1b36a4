"""Bias-steering protocol unitaries: structure, bias laws, greedy inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergokit import (
    DomainError,
    core,
    families,
    protocols,
    SystemSpec,
    UnreachableBiasError,
    UnsupportedError,
    apply_unitary,
    bias_after_inversion,
    inversion_sequence_to_bias,
    level_inversion_unitary,
    local_beta_for_bias,
    measure_bias,
    pair_rotation_unitary,
    partial_trace_to,
    prepare_locally_thermal,
    product_thermal_state,
    thermal_entropy,
    thermal_params,
    thermal_state,
    von_neumann_entropy,
)
from ergokit.core import _hamming_weights
from strategies import specs


# ---------------------------------------------------------------------------
# rotation structure
# ---------------------------------------------------------------------------

def test_zero_angle_is_identity():
    spec = SystemSpec.qubits(3, 1.0)
    mat = pair_rotation_unitary(spec, 0.0).materialize()
    np.testing.assert_array_equal(mat, np.eye(8))


def test_odd_n_rotation_count_and_pairing():
    spec = SystemSpec.qubits(3, 1.0)
    unitary = pair_rotation_unitary(spec, 0.4)
    assert len(unitary.rotations) == 4  # 2^(n-1)
    weights = _hamming_weights(3)
    for a, b, _ in unitary.rotations:
        assert b == (2 ** 3 - 1) ^ a
        assert weights[a] < 1.5


def test_rotation_requires_qubits():
    spec = SystemSpec(n=2, d=3, local_energies=(0.0, 1.0, 2.0), beta=1.0)
    with pytest.raises(UnsupportedError):
        pair_rotation_unitary(spec, 0.3)


# ---------------------------------------------------------------------------
# continuous bias steering
# ---------------------------------------------------------------------------

def test_quarter_turn_gives_maximally_mixed_marginals():
    spec = SystemSpec.qubits(3, 1.0)
    result = prepare_locally_thermal(spec, 1.0, 0.0)
    assert abs(result.angle - math.pi / 4) <= 1e-12
    for k in range(1, 4):
        marginal = partial_trace_to(result.state, spec, k)
        np.testing.assert_allclose(marginal.entries, np.eye(2) / 2, atol=1e-12)


def test_target_at_source_bias_is_identity():
    spec = SystemSpec.qubits(3, 1.0)
    bias_prime = thermal_params(spec, 1.5).bias
    result = prepare_locally_thermal(spec, 1.5, bias_prime)
    assert result.angle == 0.0
    np.testing.assert_allclose(result.state.entries,
                               product_thermal_state(spec, 1.5).entries, atol=1e-13)


def test_two_qubit_worked_example():
    # beta' = 2, E = 1: bias' = tanh(1); target = tanh(1/2) (the beta = 1 bias)
    spec = SystemSpec.qubits(2, 1.0)
    target = math.tanh(0.5)
    result = prepare_locally_thermal(spec, 2.0, target)
    assert abs(result.angle - 0.5 * math.acos(math.tanh(0.5) / math.tanh(1.0))) <= 1e-14
    assert abs(result.angle - 0.45940) <= 1e-5
    assert abs(result.achieved_bias - target) <= 1e-12
    assert abs(result.beta_local - 1.0) <= 1e-10
    tau = thermal_state(spec)
    for k in (1, 2):
        marginal = partial_trace_to(result.state, spec, k)
        assert float(np.abs(marginal.entries - tau.entries).max()) <= 1e-12


def test_bias_law_holds_to_1e14_at_large_n():
    # the marginal sums its 2^(n-1) populations pairwise; summed in index
    # order they miss cos(2a) b' by up to 2e-12 at n = 18
    for n in (16, 17, 18):
        spec = SystemSpec.qubits(n, 1.0)
        bias_prime = thermal_params(spec, 2.0).bias
        for target in (0.3, -0.1):
            result = prepare_locally_thermal(spec, 2.0, target)
            expected = math.cos(2 * result.angle) * bias_prime
            assert abs(result.achieved_bias - expected) <= 1e-14, (n, target)


def test_unreachable_bias_raises():
    spec = SystemSpec.qubits(2, 1.0)
    with pytest.raises(UnreachableBiasError):
        prepare_locally_thermal(spec, 1.0, 0.99)


# ---------------------------------------------------------------------------
# shell inversions
# ---------------------------------------------------------------------------

def test_inversion_two_qubits_single_pair():
    unitary = level_inversion_unitary(SystemSpec.qubits(2, 1.0), 0)
    assert unitary.rotations == ((0, 3, math.pi / 2),)


def test_inversion_twice_restores_diagonal_states():
    spec = SystemSpec.qubits(4, 1.0)
    state = product_thermal_state(spec, 0.8)
    unitary = level_inversion_unitary(spec, 1)
    once = apply_unitary(state, unitary)
    # diagonal states stay diagonal (cos(pi/2) leaves only epsilon-size residue)
    assert np.abs(once.entries - np.diag(once.diagonal)).max() <= 1e-16
    twice = apply_unitary(once, unitary)
    np.testing.assert_allclose(twice.diagonal, state.diagonal, atol=1e-14)


def test_inversion_pair_count():
    unitary = level_inversion_unitary(SystemSpec.qubits(4, 1.0), 1)
    assert len(unitary.rotations) == math.comb(4, 1)


def test_inversion_level_domain():
    spec = SystemSpec.qubits(4, 1.0)
    with pytest.raises(DomainError):
        level_inversion_unitary(spec, 2)  # level = n/2 pairs with itself
    with pytest.raises(DomainError):
        level_inversion_unitary(spec, -1)


def test_bias_shift_fixed_points():
    spec = SystemSpec.qubits(6, 1.0)
    # infinite temperature: z' = 0 and the swapped populations are equal
    assert abs(bias_after_inversion(spec, 0.5, 1)) <= 1e-15
    # no excitations: nothing to swap at levels >= 1
    assert abs(bias_after_inversion(spec, 0.0, 1) - 1.0) <= 1e-15


def test_bias_shift_worked_example_n8():
    spec = SystemSpec.qubits(8, 1.0)
    predicted = bias_after_inversion(spec, 0.25, 2)
    expected = 0.5 - 2 * 28 * 0.5 * (0.25 ** 2 * 0.75 ** 6 - 0.25 ** 6 * 0.75 ** 2)
    assert abs(predicted - expected) <= 1e-15
    start = product_thermal_state(spec, math.log(3.0))  # excited population 0.25
    measured = measure_bias(apply_unitary(start, level_inversion_unitary(spec, 2)), spec)
    assert abs(predicted - measured) <= 1e-12


# ---------------------------------------------------------------------------
# greedy inversion sequences
# ---------------------------------------------------------------------------

def test_sequence_reversal_residual_shrinks_with_n():
    residuals = {}
    for n in (8, 12):
        spec = SystemSpec.qubits(n, 1.0)
        bias_prime = thermal_params(spec, 1.0).bias
        result = inversion_sequence_to_bias(spec, 1.0, -0.9 * bias_prime)
        residuals[n] = result.residual
        # the returned state must actually carry the reported bias
        assert abs(measure_bias(result.state, spec) - result.achieved_bias) <= 1e-12
        assert von_neumann_entropy(result.state) == pytest.approx(
            n * thermal_entropy(spec, 1.0), abs=1e-9
        )
    assert residuals[12] < residuals[8]


def test_sequence_unreachable_target():
    spec = SystemSpec.qubits(6, 1.0)
    with pytest.raises(UnreachableBiasError):
        inversion_sequence_to_bias(spec, 1.0, 0.99)


def test_sequence_interior_target():
    spec = SystemSpec.qubits(10, 1.0)
    bias_prime = thermal_params(spec, 1.0).bias
    result = inversion_sequence_to_bias(spec, 1.0, -0.3 * bias_prime)
    assert result.residual < bias_prime
    assert result.levels  # at least one inversion applied
    assert sorted(set(result.levels)) == sorted(result.levels)


@settings(max_examples=100)
@given(spec=specs(max_dim=1024).filter(lambda spec: spec.d == 2 and spec.n >= 2),
       fraction=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0))
def test_sequence_never_moves_away_from_the_target(spec, fraction):
    # the chain starts at the product's bias b' and keeps only shrinking steps
    bias_prime = thermal_params(spec).bias
    target = fraction * bias_prime
    result = inversion_sequence_to_bias(spec, spec.beta, target)
    assert result.residual <= abs(bias_prime - target) + 1e-12
    # the chain's bias and the marginal's are the same pairwise sums
    assert result.achieved_bias == measure_bias(result.state, spec)


def former_chain(spec, beta_prime, target):
    """The greedy chain as it ran on the 2^n population vector before shell records.

    Returns its levels, its populations, its bias, and for each decision
    the candidate's residual minus the current one (negative: accepted).
    """
    n, mask, half = spec.n, spec.dim - 1, spec.dim // 2
    excited = thermal_params(spec, beta_prime).populations[1]
    diag = product_thermal_state(spec, beta_prime).diagonal
    bias = float(diag[:half].sum() - diag[half:].sum())
    applied, gains = [], []
    for mu in [0] + [m * sign for m in range(1, n + 1) for sign in (1, -1)]:
        level = int(round(n * excited - mu))
        if level < 0 or level >= n / 2 or level in applied:
            continue
        shell = np.flatnonzero(_hamming_weights(n) == level)
        candidate = diag.copy()
        candidate[shell], candidate[mask ^ shell] = diag[mask ^ shell], diag[shell]
        candidate_bias = float(candidate[:half].sum() - candidate[half:].sum())
        gains.append(abs(candidate_bias - target) - abs(bias - target))
        if not gains[-1] < 0.0:
            break
        diag, bias = candidate, candidate_bias
        applied.append(level)
    return tuple(applied), diag, bias, gains


# a residual step the former chain's sums cannot resolve: 2^-49, eight ulp of 1,
# since each of its two half sums of up to 2^11 populations rounds 11 times deep
CHAIN_ROUNDING = 2.0 ** -49


@settings(max_examples=300)
@given(n=st.integers(1, 12),
       beta_prime=st.sampled_from([0.0, 30.0]) | st.floats(0.0, 30.0),
       fraction=st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0))
def test_shell_chain_equals_the_former_population_chain(n, beta_prime, fraction):
    spec = SystemSpec.qubits(n, 1.0)
    target = fraction * thermal_params(spec, beta_prime).bias
    levels, diag, bias, gains = former_chain(spec, beta_prime, target)
    result = inversion_sequence_to_bias(spec, beta_prime, target)
    if result.levels == levels:
        np.testing.assert_allclose(result.state.diagonal, diag, rtol=0.0, atol=1e-15)
        assert abs(result.achieved_bias - bias) <= 1e-15
        return
    # both chains try the same candidates in the same order, so they differ
    # only in where they stop: at a step that moved the former residual by
    # less than its sums resolve (b' ~ 1e-15, or a shell of weight ~1e-17).
    # There the shell chain ends no farther from the target, up to rounding.
    shorter = min(len(levels), len(result.levels))
    assert result.levels[:shorter] == levels[:shorter]
    assert abs(gains[shorter]) <= CHAIN_ROUNDING, (levels, result.levels, gains)
    assert result.residual <= abs(bias - target) + CHAIN_ROUNDING


def test_shell_chain_builds_no_basis_vector_before_its_state(monkeypatch):
    def refused(*args):
        raise AssertionError("the chain built a 2^n vector")

    # the bias measured at the end is a class sum: nothing expands the record
    for module in (core, families, protocols):
        monkeypatch.setattr(module, "_hamming_weights", refused)
    monkeypatch.setattr(families, "product_thermal_state", refused)
    assert not hasattr(protocols, "product_thermal_state")  # nor a name of its own for it
    spec = SystemSpec.qubits(10, 1.0)
    result = inversion_sequence_to_bias(spec, 1.0, -0.3 * thermal_params(spec, 1.0).bias)
    assert result.levels
    record = result.state._record
    assert record.counts == [(10 - k, k) for k in range(11)]


def test_local_beta_for_bias_rejects_nan():
    with pytest.raises(DomainError):
        local_beta_for_bias(SystemSpec.qubits(2, 1.0), math.nan)
