"""States without blocks, and blocks within one tile, take no block machinery.

Each short path is checked against the general code it replaces, kept
here as it was, or against a dense reference: the same populations and
groups to the byte, the same typed error, or the same scalar to the bit.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ergokit import (
    Bipartition,
    DensityMatrix,
    SystemSpec,
    diagonal_state_at_entropy,
    min_pt_eigenvalue,
    product_thermal_state,
    separable_optimal_state,
)
from ergokit import core, families
from ergokit.core import DENSE_BYTES_MAX, HERMITICITY_TOL, _HERMITICITY_TILE
from ergokit.errors import ErgokitError, InfeasibilityError
from ergokit.passivity import thermal_entropy, thermal_params
from dense_oracle import partial_transpose
from strategies import BETAS, specs


# ---------------------------------------------------------------------------
# the general code as it was before the short paths
# ---------------------------------------------------------------------------

def former_dense_labels(arr: np.ndarray):
    dim = arr.shape[0]
    if np.count_nonzero(arr[:1]) == dim:
        return None
    linked = arr != 0
    linked |= linked.T
    np.fill_diagonal(linked, False)
    links = np.count_nonzero(linked, axis=1)
    hub = int(np.argmax(links))
    rows = ~linked[hub]
    if links[hub] == dim - 1 or 48 * int(links[rows].sum()) > DENSE_BYTES_MAX:
        return None
    a, b = np.nonzero(linked[rows])
    return core._component_labels(dim, np.flatnonzero(rows)[a], b)


def former_dense_parts(arr: np.ndarray) -> core._Parts:
    dim = arr.shape[0]
    index = np.arange(dim)[None]
    label = former_dense_labels(arr)
    if label is None:
        return core._Parts(np.zeros(dim), [(index, arr.copy()[None])])
    member = np.bincount(label, minlength=dim)[label] > 1
    diag = arr.diagonal()
    defect = float(np.abs(diag - diag.conj()).max(initial=0.0, where=~member))
    if not defect <= HERMITICITY_TOL:
        raise core.ValidityError(f"matrix is not finite and Hermitian (defect {defect:.3e})")
    stacks = core._component_blocks(label, member, diag, [(index, arr[None])])[0]
    return core._Parts(np.where(member, 0.0, diag.real), stacks.values())


def one_block(arr: np.ndarray) -> core._Parts:
    """The parts of an array with anything off its diagonal: one block over every index."""
    dim = arr.shape[0]
    return core._Parts(np.zeros(dim), [(np.arange(dim)[None], arr[None].copy())])


def former_hermiticity_defect(arr: np.ndarray) -> float:
    worst = 0.0
    dim, tile = arr.shape[-1], _HERMITICITY_TILE
    with np.errstate(invalid="ignore"):
        for lo in range(0, dim, tile):
            for col in range(lo, dim, tile):
                upper = arr[..., lo:lo + tile, col:col + tile]
                lower = arr[..., col:col + tile, lo:lo + tile]
                worst = np.maximum(worst, np.abs(upper - lower.conj().swapaxes(-1, -2)).max())
    return float(worst)


def outcome(build):
    """The state's parts as bytes, or the typed error's class and message."""
    try:
        rho = build()
    except ErgokitError as exc:
        return type(exc), str(exc)
    return (rho.populations.tobytes(),
            [(index.tobytes(), values.tobytes()) for index, values in rho.groups])


# ---------------------------------------------------------------------------
# a caller's dense array with nothing off the diagonal
# ---------------------------------------------------------------------------

SPECIAL = [0.0, 0.0, 1e-11j, 2e-12j, -5e-13j, math.nan, math.inf, -math.inf,
           complex(math.nan, 0.0), complex(0.0, math.inf)]


@st.composite
def diagonal_arrays(draw):
    """Dense arrays, mostly diagonal: zero entries, complex, NaN and inf diagonals."""
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    diag = rng.uniform(0.0, 1.0, dim).astype(complex)
    diag /= diag.sum()
    for at, value in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.sampled_from(SPECIAL)),
                                   max_size=4)):
        # a finite imaginary part is added to the population; zero, NaN and inf replace it
        finite_imaginary = value.imag != 0 and math.isfinite(abs(value))
        diag[at] = diag[at] + value if finite_imaginary else value
    arr = np.diag(diag)
    if draw(st.booleans()) and dim > 1:
        # one entry off the diagonal, with or without its Hermitian partner
        i, j = draw(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)))
        j = (j + (i == j)) % dim
        arr[i, j] = draw(st.sampled_from([1e-3, 1e-3j, math.nan]))
        if draw(st.booleans()):
            arr[j, i] = np.conj(arr[i, j])
    return arr


@settings(max_examples=150)
@given(arr=diagonal_arrays())
@example(arr=np.zeros((1, 1), dtype=complex))
@example(arr=np.ones((1, 1), dtype=complex))
@example(arr=np.diag([0.5, 0.5 + 2e-12j]))
@example(arr=np.diag([0.5, 0.5, math.nan]))
@example(arr=np.diag([1.0, 0.0, math.inf, 0.0]))
@example(arr=np.array([[0.5, 0.1j, 0.0], [-0.1j, 0.5, 0.0], [0.0, 0.0, 0.0]]))
def test_a_diagonal_array_gives_the_former_parts_or_error(arr):
    off_diagonal = np.count_nonzero(arr) != np.count_nonzero(arr.diagonal())
    expected = one_block if off_diagonal else former_dense_parts
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal, on both paths
        assert outcome(lambda: DensityMatrix(arr)) == \
            outcome(lambda: DensityMatrix(expected(arr)))


def test_an_inf_on_a_coupled_arrays_diagonal_raises_no_warning_first():
    # the populations' Hermiticity defect is inf - inf = NaN, which used to
    # warn outside np.errstate; under -W error the warning then replaced
    # the ValidityError
    arr = np.diag([math.inf, 0.5, 0.5]).astype(complex)
    arr[1, 2] = arr[2, 1] = 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(core.ValidityError, match="not finite and Hermitian"):
            DensityMatrix(arr)


def test_a_diagonal_array_builds_without_a_dim_squared_mask():
    dim = 256
    arr = np.diag(np.full(dim, 1.0 / dim)).astype(complex)
    tracemalloc.start()
    try:
        rho = DensityMatrix(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rho.groups
    assert peak < dim * dim / 4, peak  # the former link mask alone took dim^2 bytes


# ---------------------------------------------------------------------------
# short paths inside core
# ---------------------------------------------------------------------------

@settings(max_examples=100)
@given(m=st.integers(1, 3), k=st.integers(0, 2 * _HERMITICITY_TILE + 3),
       seed=st.integers(0, 2 ** 32 - 1),
       special=st.sampled_from([None, math.nan, math.inf, complex(0.0, -math.inf), 1e-13j]))
@example(m=1, k=0, seed=0, special=None)
@example(m=2, k=_HERMITICITY_TILE, seed=1, special=math.nan)
@example(m=1, k=_HERMITICITY_TILE + 1, seed=2, special=math.inf)
def test_hermiticity_defect_equals_the_tile_walk(m, k, seed, special):
    rng = np.random.default_rng(seed)
    k = min(k, 40) if m > 1 else k  # a few large blocks, stacks of small ones
    g = rng.standard_normal((m, k, k)) + 1j * rng.standard_normal((m, k, k))
    stack = g + g.conj().swapaxes(1, 2)
    if special is not None and k:
        stack[rng.integers(m), rng.integers(k), rng.integers(k)] += special
    actual, expected = core._hermiticity_defect(stack), former_hermiticity_defect(stack)
    assert np.array_equal(actual, expected, equal_nan=True)
    if m == 1:
        assert np.array_equal(core._hermiticity_defect(stack[0]), expected, equal_nan=True)


def test_no_edges_label_every_node_apart():
    none = np.empty(0, dtype=np.int64)
    np.testing.assert_array_equal(core._component_labels(7, none, none), np.arange(7))


def test_no_groups_give_the_populations_as_eigenvalues():
    pops = np.array([0.25, 0.0, 0.5, 0.25])
    vals = core._parts_eigenvalues(pops, ())
    assert vals.tobytes() == pops.tobytes()
    assert vals is not pops and vals.base is None


# ---------------------------------------------------------------------------
# the partial transpose of a block-free state
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(spec=specs(max_dim=64), beta_prime=BETAS, weight=st.floats(0.0, 1.0), data=st.data())
def test_min_pt_eigenvalue_of_a_block_free_state_equals_the_dense_oracle(spec, beta_prime,
                                                                          weight, data):
    if spec.n < 2:
        return
    side = data.draw(st.sets(st.integers(1, spec.n), min_size=1, max_size=spec.n - 1))
    part = Bipartition(frozenset(side), spec.n)
    product = product_thermal_state(spec, beta_prime)
    states = [product,
              DensityMatrix(weight * separable_optimal_state(spec).entries
                            + (1.0 - weight) * product.entries)]
    if spec.d == 2:
        states.append(diagonal_state_at_entropy(spec, thermal_entropy(spec))[0])
    for rho in states:
        assert not rho.groups
        expected = float(np.linalg.eigvalsh(partial_transpose(rho, spec, part)).min())
        assert min_pt_eigenvalue(rho, spec, part) == expected


def test_min_pt_eigenvalue_of_a_block_free_state_still_checks_the_split():
    spec = SystemSpec.qubits(3, 1.0)
    rho = product_thermal_state(spec)
    with pytest.raises(core.ShapeError, match="bipartition over 2 subsystems"):
        min_pt_eigenvalue(rho, spec, Bipartition(frozenset({1}), 2))
    with pytest.raises(core.ShapeError, match="state dimension 8"):
        min_pt_eigenvalue(rho, SystemSpec.qubits(2, 1.0), Bipartition(frozenset({1}), 2))


# ---------------------------------------------------------------------------
# the fixed-entropy refusal's range
# ---------------------------------------------------------------------------

def test_refused_range_includes_the_last_scan_point():
    # f still rises at hi here, so the largest value the scan saw is f(hi)
    spec = SystemSpec.qubits(14, 1.0774058461236613)
    with pytest.raises(InfeasibilityError) as refused:
        diagonal_state_at_entropy(spec, 7.804075785515202)
    assert str(refused.value).endswith(
        "family covers [0.5666841146046036, 5.4215238393748555]")
    p = thermal_params(spec).populations[1]
    shell = families.smallest_shell_for_entropy(14, 7.804075785515202)
    hi = min(14 * p / shell, 14 * (1.0 - p) / (14 - shell))
    assert str(refused.value).startswith(f"no shell weight in [0, {hi!r}]")
    assert families._shell_family_entropy(hi, p, 14, shell, math.log(math.comb(14, shell))) \
        == 5.4215238393748555
