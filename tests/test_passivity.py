"""Passive states, ergotropy, entropy inversion and the work bounds."""

import dataclasses
import functools
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ergokit import (
    DensityMatrix,
    DomainError,
    SystemSpec,
    beta_for_entropy,
    build_hamiltonian,
    entangled_pure_state,
    entropy_constrained_bound,
    ergotropy,
    is_passive,
    passive_state,
    product_thermal_state,
    separable_optimal_state,
    separable_work_limit,
    thermal_entropy,
    thermal_params,
    thermal_state,
)
from ergokit import cli, passivity, verify
from ergokit.figures import figure1_rows
from ergokit.passivity import BETA_MAX_SCALE
from ergokit.reporting import format_value
from ergokit.verify import _permutation_table, random_density_matrix
from decimal_oracle import figure1_ratios, thermal
from dense_oracle import gibbs_weighted_superposition
from strategies import specs

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


def test_is_passive_allows_work_up_to_1e12_of_the_largest_energy():
    # an inverted pair with population gap x under H = (0, E) stores work x E,
    # against a tolerance of 1e-12 max(1, E)
    for energy in (0.5, 100.0):
        for share, passive in ((0.5, True), (2.0, False)):
            x = share * 1e-12 * max(1.0, energy) / energy
            rho = DensityMatrix.from_diagonal([0.5 - x / 2, 0.5 + x / 2])
            assert is_passive(rho, [0.0, energy]) is passive


def test_is_passive_and_ergotropy_reject_non_finite_energies():
    rho = DensityMatrix.from_diagonal([0.7, 0.3])
    for energies in ([0.0, math.nan], [0.0, math.inf]):
        with pytest.raises(DomainError, match="finite"):
            is_passive(rho, energies)
        with pytest.raises(DomainError, match="finite"):
            ergotropy(rho, energies)


@functools.lru_cache(maxsize=None)
def _permutations(dim: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(dim))))


@pytest.mark.parametrize("m", range(1, 9))
def test_verify_permutation_table_is_in_itertools_order(m):
    assert np.array_equal(_permutation_table(m), _permutations(m))


def test_verify_ergotropy_convexity_builds_three_states_a_trial(monkeypatch):
    built = []
    init = DensityMatrix.__init__

    def counted(self, entries):
        built.append(1)
        init(self, entries)

    monkeypatch.setattr(DensityMatrix, "__init__", counted)
    verify.check_ergotropy_convexity(np.random.default_rng(0))
    assert len(built) == 3 * 500


def test_verify_ergotropy_convexity_fails_on_a_concave_work(monkeypatch):
    # negated work is concave, so on general pairs the check must catch it
    def negated(rho, hamiltonian):
        report = ergotropy(rho, hamiltonian)
        return dataclasses.replace(report, ergotropy=-report.ergotropy)

    monkeypatch.setattr(verify, "ergotropy", negated)
    with pytest.raises(AssertionError, match="convexity violated"):
        verify.check_ergotropy_convexity(np.random.default_rng(0))


@settings(max_examples=200)
@given(spec=specs(max_dim=8), data=st.data())
def test_is_passive_is_zero_work_against_the_permutation_minimum(spec, data):
    # populations: the thermal product at the spec's beta, shuffled, or random
    energies = build_hamiltonian(spec)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if data.draw(st.booleans()):
        pops = product_thermal_state(spec).diagonal[rng.permutation(spec.dim)]
    else:
        pops = rng.dirichlet(np.ones(spec.dim))
    rho = DensityMatrix.from_diagonal(pops)
    oracle = float((pops[_permutations(spec.dim)] @ energies).min())
    assert abs(ergotropy(rho, energies).passive_energy - oracle) <= 1e-12
    gap = float(pops @ energies) - oracle
    assert is_passive(rho, energies) is bool(gap <= 1e-12 * max(1.0, energies.max()))


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


def test_entropy_bound_domain_is_decided_by_the_total():
    # one check, on the total: within 1e-9 above n ln d is n ln d (beta' = 0),
    # beyond it the error names the total range
    spec = SystemSpec.qubits(1, 1.0)
    bound = entropy_constrained_bound(spec, math.log(2.0) + 5e-10)
    assert bound == thermal_params(spec).mean_energy - thermal_params(spec, 0.0).mean_energy
    with pytest.raises(DomainError, match=r"total entropy .* outside \[0, n ln d = "):
        entropy_constrained_bound(spec, math.log(2.0) + 2e-9)


@pytest.mark.parametrize("beta_e", [0.01, 1.0, 10.0, 28.0, 30.0, 35.0])
def test_beta_for_entropy_recovers_beta(beta_e):
    # S is rounded within 2^-50 (1 + beta E) relative by thermal_params, once
    # for the target and once at the answer; dS/dbeta' = -beta' Var(E) turns
    # that into the only error the step stop leaves beyond 4 ulp
    for spec in (SystemSpec.qubits(1, 1.0), SystemSpec.qubits(1, 1.0, energy=2.0)):
        beta = beta_e / spec.energy_gap
        params = thermal_params(spec, beta)
        variance = spec.energy_gap ** 2 * params.populations[0] * params.populations[1]
        rounding = 2.0 * 2.0 ** -50 * (1.0 + beta_e) * params.entropy / (beta * variance)
        found = beta_for_entropy(spec, params.entropy).beta_prime
        assert abs(found - beta) <= 4.0 * math.ulp(beta) + rounding


def newton_step_within_4_ulp(spec, params, s) -> bool:
    """beta_for_entropy's stop: its Newton step on ln S moves beta' by at most 4 ulp."""
    beta, entropy = params.beta_prime, params.entropy
    variance = (math.fsum(p * e * e for p, e in zip(params.populations, spec.local_energies))
                - params.mean_energy ** 2)
    if not (entropy > 0.0 and variance > 0.0):
        return False
    step = beta + (math.log(entropy) - math.log(s)) * entropy / (beta * variance)
    return abs(step - beta) <= 4.0 * math.ulp(beta)


def meets_stopping_rule(spec, params, s) -> bool:
    """reference_bisection's residual rule: at most 1e-12, and at most 1e-10 beta'^2 Var(E).

    It is not the solver's rule: beta_for_entropy stops on its Newton step
    (newton_step_within_4_ulp).
    """
    resid = abs(params.entropy - s)
    variance = float(np.square(spec.local_energies) @ params.populations) - params.mean_energy ** 2
    return resid <= 1e-12 and resid <= 1e-10 * params.beta_prime ** 2 * variance


def reference_bisection(spec, s):
    """The solver's former loop: bisection on [0, 10^6 / gap] with the same stopping rule."""
    if math.log(spec.d) - s <= 1e-12:
        return passivity.thermal_params(spec, 0.0)
    gap = spec.energy_gap if spec.energy_gap > 0.0 else 1.0
    lo, hi = 0.0, BETA_MAX_SCALE / gap
    params = passivity.thermal_params(spec, hi)
    if s <= params.entropy:
        return params
    while True:
        mid = 0.5 * (lo + hi)
        params = passivity.thermal_params(spec, mid)
        if meets_stopping_rule(spec, params, s) or not lo < mid < hi:
            return params
        if params.entropy > s:
            lo = mid
        else:
            hi = mid


def ladder_with_gaps(gaps) -> SystemSpec:
    ladder = (0.0,) + tuple(itertools.accumulate(gaps))
    return SystemSpec(n=1, d=len(ladder), local_energies=ladder, beta=1.0)


LADDERS = st.integers(2, 6).flatmap(
    lambda d: st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.05, 3.0),
                       min_size=d - 1, max_size=d - 1)).map(ladder_with_gaps)


@settings(max_examples=300)
@given(spec=LADDERS, beta=st.floats(0.0, 700.0))
@example(spec=ladder_with_gaps((1.0,)), beta=0.0)
@example(spec=ladder_with_gaps((1.0, 0.0)), beta=30.0)
@example(spec=ladder_with_gaps((0.0, 0.0, 1.0, 2.0)), beta=700.0)
@example(spec=ladder_with_gaps((1.0, 1.0, 1.0, 1.0, 1.0)), beta=700.0)
def test_thermal_params_match_the_decimal_oracle(spec, beta):
    # thermal_params' stated bound: 2^-50 (1 + beta E_max) relative, and
    # four subnormal steps for a value below the smallest normal float
    params, exact = thermal_params(spec, beta), thermal(spec.local_energies, beta)
    rtol = 2.0 ** -50 * (1.0 + beta * spec.local_energies[-1])
    pairs = [(params.partition_function, exact.partition_function),
             (params.mean_energy, exact.mean_energy),
             (params.entropy, exact.entropy),
             *zip(params.populations, exact.populations)]
    for value, true in pairs:
        assert abs(value - float(true)) <= rtol * float(true) + 2.0 ** -1072, (value, true)


@settings(max_examples=150)
@given(spec=LADDERS, beta_e=st.sampled_from([0.0, 60.0]) | st.floats(0.0, 60.0),
       fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), by_beta=st.booleans())
@example(spec=ladder_with_gaps((1.0, 0.0)), beta_e=3.0, fraction=0.0, by_beta=True)
@example(spec=ladder_with_gaps((1.0, 0.0)), beta_e=0.0, fraction=0.4, by_beta=False)
def test_beta_for_entropy_meets_its_stopping_rule_and_agrees_with_bisection(
        spec, beta_e, fraction, by_beta):
    gap = spec.energy_gap if spec.energy_gap > 0.0 else 1.0
    s_max = math.log(spec.d)
    s = thermal_entropy(spec, beta_e / gap) if by_beta else fraction * s_max
    params = beta_for_entropy(spec, s)
    assert params == thermal_params(spec, params.beta_prime)
    beta = params.beta_prime
    if s_max - s <= 1e-12:
        assert beta == 0.0
    elif beta == BETA_MAX_SCALE / gap:
        assert s <= params.entropy  # the sentinel: s is at or below its entropy
    elif not newton_step_within_4_ulp(spec, params, s):
        # the bracket can no longer be split: the float next to beta' on the
        # far side of the root has the entropy on the other side of s
        side = math.inf if params.entropy > s else 0.0
        neighbour = thermal_entropy(spec, math.nextafter(beta, side))
        assert (params.entropy > s) != (neighbour > s)
    reference = reference_bisection(spec, s).beta_prime
    # where S is flat, the entropy's own rounding (a few 1e-16) leaves beta'
    # undetermined by about 1e-15 / (beta' Var(E))
    variance = float(np.square(spec.local_energies) @ params.populations) - params.mean_energy ** 2
    slack = 2e-15 / (beta * variance) if beta * variance > 0.0 else math.inf
    assert abs(beta - reference) <= 1e-9 * reference + slack


@settings(max_examples=300)
@given(spec=LADDERS, beta=st.sampled_from([0.01, 30.0]) | st.floats(0.0, 700.0))
@example(spec=ladder_with_gaps((1.0,)), beta=0.01)
def test_beta_for_entropy_returns_the_reference_beta_at_its_entropy(spec, beta):
    spec = SystemSpec(n=1, d=spec.d, local_energies=spec.local_energies, beta=beta)
    s = thermal_entropy(spec)
    gap = spec.energy_gap if spec.energy_gap > 0.0 else 1.0
    # strictly between the sentinel's entropy and ln d, where the solve iterates
    assume(thermal_entropy(spec, BETA_MAX_SCALE / gap) < s and math.log(spec.d) - s > 1e-12)
    assert beta_for_entropy(spec, s).beta_prime == beta


@pytest.mark.parametrize("gaps", [(1.0,), (2.0,), (1.0, 0.0), (1.0, 1.0), (0.3, 0.7, 0.0),
                                  (1.0, 1.0, 1.0, 1.0), (0.5, 2.0, 0.0, 0.0, 1.0)])
def test_beta_for_entropy_edge_cases(gaps):
    spec = ladder_with_gaps(gaps)
    gap = spec.energy_gap
    assert beta_for_entropy(spec, math.log(spec.d)).beta_prime == 0.0
    assert beta_for_entropy(spec, 0.0).beta_prime == BETA_MAX_SCALE / gap
    for bad in (math.nan, -0.01, math.log(spec.d) + 0.01, math.inf):
        with pytest.raises(DomainError):
            beta_for_entropy(spec, bad)


def test_beta_for_entropy_needs_few_gibbs_evaluations(monkeypatch):
    calls = []
    uncounted = passivity.thermal_params

    def counted(spec, beta=None):
        calls.append(beta)
        return uncounted(spec, beta)

    monkeypatch.setattr(passivity, "thermal_params", counted)
    new, old = [], []
    for gaps in [(1.0,), (2.0,), (1.0, 0.0), (1.0, 1.0), (1.0, 1.5), (0.3, 0.7, 0.0),
                 (1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 4.0, 1.0)]:
        spec = ladder_with_gaps(gaps)
        targets = [uncounted(spec, beta_e / spec.energy_gap).entropy
                   for beta_e in (0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10, 20, 30, 40, 50, 60)]
        targets += [f * math.log(spec.d) for f in (0.001, 0.1, 0.5, 0.9, 0.999)]
        for s in targets:
            del calls[:]
            beta_for_entropy(spec, s)
            new.append(len(calls))
            del calls[:]
            reference_bisection(spec, s)
            old.append(len(calls))
    assert np.median(new) <= 8, np.median(new)
    worse = [(n, o) for n, o in zip(new, old) if n > o]
    assert not worse, worse


def count_reference_weights(monkeypatch, beta: float) -> list:
    """Record every e^(-beta E_1) that passivity evaluates for a qubit spec at beta, E_1 = 1.

    Spies on the Gibbs arithmetic itself, so a cached weight is not counted
    however often thermal_params returns it.
    """
    calls = []

    def exp(x):
        if x == -beta:
            calls.append(x)
        return math.exp(x)

    monkeypatch.setattr(passivity, "math", types.SimpleNamespace(**{**vars(math), "exp": exp}))
    return calls


@pytest.mark.parametrize("family", cli.SWEEP_FAMILIES)
def test_a_sweep_row_evaluates_its_reference_gibbs_state_once(monkeypatch, family):
    calls = count_reference_weights(monkeypatch, 0.7)
    for n in (3, 4, 5):
        del calls[:]
        [row] = cli.sweep_rows(cli.SweepConfig(family, (n,), beta=0.7, total_entropy=1.0))
        assert row["status"] == "ok", row
        assert len(calls) == 1, (n, len(calls))


def test_a_figure1_row_evaluates_its_reference_gibbs_state_once(monkeypatch):
    calls = count_reference_weights(monkeypatch, 0.7)
    rows = figure1_rows(0.7, 5)
    assert len(rows) == 5 and len(calls) == 5


def test_the_reference_gibbs_state_leaves_the_spec_as_it_was():
    spec = SystemSpec.qubits(3, 1.0)
    before = (repr(spec), hash(spec))
    params = thermal_params(spec)
    assert (repr(spec), hash(spec)) == before
    assert spec == SystemSpec.qubits(3, 1.0) and spec != SystemSpec.qubits(3, 2.0)
    assert thermal_params(spec, 1.0) is params and thermal_params(spec, np.float64(1.0)) is params
    with pytest.raises(DomainError):  # converted before it is compared with spec.beta
        thermal_params(spec, True)
    hotter = dataclasses.replace(spec, beta=2.0)
    assert thermal_params(hotter).beta_prime == 2.0
    assert thermal_params(hotter) == thermal_params(spec, 2.0)
    assert thermal_params(spec) is params
    # -0.0 equals 0.0, but its weights carry its own sign, as without a cache
    flat = SystemSpec.qubits(2, 0.0)
    assert math.copysign(1.0, thermal_params(flat, -0.0).beta_prime) == -1.0
    assert math.copysign(1.0, thermal_params(flat).beta_prime) == 1.0


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


@pytest.mark.parametrize("beta_e", [0.01, 1.0, 5.0, 20.0, 30.0, 35.0])
def test_figure1_cells_match_the_decimal_oracle(beta_e):
    rows = figure1_rows(beta_e, 60)
    # n = 1: the bound's state is the thermal one, and beta_for_entropy
    # returns the reference beta itself; the oracle's bisection leaves a residue
    assert rows[0].entropy_bound_ratio == 0.0
    for row in rows[1:]:
        cells = (row.entangled_ratio, row.separable_ratio, row.entropy_bound_ratio)
        for value, exact in zip(cells, figure1_ratios(beta_e, row.n)):
            true = float(exact)
            assert abs(value - true) <= 1e-14 * true, (row.n, value, exact)
            assert format_value(value) == format_value(true), (row.n, value, exact)


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
