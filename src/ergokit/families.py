"""Constructors for the locally thermal state families.

Every constructor returns a global state whose single-subsystem marginals
all equal the Gibbs state at the reference inverse temperature:

* the entangled pure state with Gibbs-weighted amplitudes on |a...a>,
* its dephased (diagonal, separable) counterpart of minimal entropy,
* product thermal states at an arbitrary temperature,
* the Dicke mixture matching the thermal diagonal on qubits,
* a three-weight diagonal family hitting a prescribed global entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix, SystemSpec, _Parts, _check_bytes, _check_vector_size, hamming_weights,
)
from .errors import DomainError, InfeasibilityError, UnsupportedError
from .passivity import thermal_entropy, thermal_params

GAMMA_SCAN_STEP = 1e-3
GAMMA_BISECTION_TOL = 1e-12


@dataclass(frozen=True)
class DiagonalFamilyParams:
    """Weights of the fixed-entropy diagonal family.

    ground_weight sits on |0...0>, top_weight on |1...1>, and shell_weight
    is spread uniformly over the shell with shell_excitations excited
    subsystems.  The three weights sum to one and reproduce the thermal
    excitation probability on every marginal.
    """

    ground_weight: float
    top_weight: float
    shell_weight: float
    shell_excitations: int


def dicke_index_set(n: int, k: int) -> np.ndarray:
    """All n-qubit basis indices with k excitations, ascending and read-only."""
    if not 0 <= k <= n:
        raise DomainError(f"excitation count {k} outside [0, {n}]")
    indices = np.flatnonzero(hamming_weights(n) == k)
    indices.setflags(write=False)
    return indices


def gibbs_weighted_superposition(spec: SystemSpec) -> np.ndarray:
    """Amplitude vector with weight e^(-beta E_a / 2)/sqrt(Z) on each |a...a>."""
    params = thermal_params(spec)
    _check_vector_size(spec.dim)
    amp = np.zeros(spec.dim, dtype=complex)
    rep = (spec.dim - 1) // (spec.d - 1)  # linear index of |a...a> is a * rep
    for a, pop in enumerate(params.populations):
        amp[a * rep] = math.sqrt(pop)
    return amp


def entangled_pure_state(spec: SystemSpec) -> DensityMatrix:
    """The locally thermal entangled pure state (n >= 2).

    For a single subsystem the same amplitude vector is pure, hence not
    thermal, so n = 1 is rejected.
    """
    if spec.n < 2:
        raise DomainError("local thermality of a pure state requires n >= 2")
    return DensityMatrix.from_pure(gibbs_weighted_superposition(spec))


def separable_optimal_state(spec: SystemSpec) -> DensityMatrix:
    """Gibbs-weighted classical mixture of |a...a>: the dephased pure state.

    This is the minimal-entropy separable locally thermal state; its global
    entropy equals the single-subsystem thermal entropy.
    """
    if spec.n < 2:
        raise DomainError("the correlated mixture requires n >= 2")
    params = thermal_params(spec)
    _check_vector_size(spec.dim)
    diag = np.zeros(spec.dim)
    rep = (spec.dim - 1) // (spec.d - 1)
    for a, pop in enumerate(params.populations):
        diag[a * rep] = pop
    return DensityMatrix.from_diagonal(diag)


def product_thermal_diagonal(spec: SystemSpec, beta_prime: float | None = None) -> np.ndarray:
    """Populations of tau_beta'^(x n) in basis order, as a vector."""
    pops = np.asarray(thermal_params(spec, beta_prime).populations)
    _check_vector_size(spec.dim)
    diag = np.ones(1)
    for _ in range(spec.n):
        diag = np.multiply.outer(diag, pops).ravel()
    return diag


def product_thermal_state(spec: SystemSpec, beta_prime: float | None = None) -> DensityMatrix:
    """Product of identical Gibbs states at inverse temperature beta_prime."""
    return DensityMatrix.from_diagonal(product_thermal_diagonal(spec, beta_prime))


def dicke_thermal_mixture(spec: SystemSpec) -> DensityMatrix:
    """Binomial mixture of Dicke states with the thermal diagonal (qubits).

    The weight on the k-excitation Dicke state is C(n,k) p^k (1-p)^(n-k),
    so the diagonal matches tau_beta^(x n) while each degenerate shell is
    maximally coherent.  Rank is n + 1.  Each shell block holds one number,
    stored once and broadcast to its C(n, k) x C(n, k) block as a read-only
    view: n + 1 stored values for sum_k C(n, k)^2 = C(2n, n) logical
    entries.  The guard on those entries stays, because entries, the
    partial transpose and pair rotations expand the blocks, and the
    spectrum copies each block once and takes O(C(n, k)^3) time: raises
    CapacityError when 16 C(2n, n) bytes exceed core.DENSE_BYTES_MAX.
    """
    if spec.d != 2:
        raise UnsupportedError("the Dicke mixture is implemented for qubits only")
    n = spec.n
    _check_bytes(16 * math.comb(2 * n, n), f"the Dicke mixture's shell blocks at n = {n}")
    p = thermal_params(spec).populations[1]
    # one constant block amp^2 per shell; shells of equal size share a group
    shells: dict[int, list] = {}
    for k in range(n + 1):
        amp = math.sqrt(p ** k * (1.0 - p) ** (n - k))
        shells.setdefault(math.comb(n, k), []).append((dicke_index_set(n, k), amp * amp))
    groups = []
    for size, same in shells.items():
        # complex, since .imag of a real broadcast view allocates a full zero array
        weights = np.array([w for _, w in same], dtype=complex)
        groups.append((np.stack([index for index, _ in same]),
                       np.broadcast_to(weights[:, None, None], (weights.size, size, size))))
    return DensityMatrix(_Parts(np.zeros(spec.dim), groups))


def smallest_shell_for_entropy(n: int, entropy: float) -> int:
    """Smallest D with ln C(n, D) >= entropy, capped at n//2.

    Beyond n//2 the binomial coefficients repeat by symmetry, so a larger
    shell can never help.
    """
    if not entropy >= 0.0:
        raise DomainError(f"entropy must be nonnegative, got {entropy}")
    for shell in range(0, n // 2 + 1):
        if math.log(math.comb(n, shell)) >= entropy:
            return shell
    top = math.log(math.comb(n, n // 2))
    raise InfeasibilityError(
        f"entropy {entropy} exceeds ln C({n}, {n // 2}) = {top!r}"
    )


def _xlnx(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log(x)


def _xlnx_array(x: np.ndarray) -> np.ndarray:
    positive = x > 0.0
    return np.where(positive, x * np.log(np.where(positive, x, 1.0)), 0.0)


def _shell_family_entropy(gamma, p: float, n: int, shell: int, ln_shell_size: float,
                          xlnx=_xlnx):
    """Global entropy of the three-weight diagonal family at shell weight gamma.

    With xlnx=_xlnx_array, gamma may be an array; the arithmetic is the
    same, but np.log may differ from math.log in the last bit.
    """
    top = p - gamma * shell / n
    ground = 1.0 - p - gamma * (n - shell) / n
    return -(xlnx(ground) + xlnx(top) + xlnx(gamma)) + gamma * ln_shell_size


def diagonal_state_at_entropy(
    spec: SystemSpec, total_entropy: float
) -> tuple[DensityMatrix, DiagonalFamilyParams]:
    """Diagonal locally thermal qubit state with the prescribed global entropy.

    On the chosen shell, f(gamma) is concave: every weight is affine in
    gamma, -x ln x is concave and gamma ln C(n, D) is linear.  The solve
    takes the first crossing of f(gamma) = total_entropy on the grid
    gamma_k = min(k GAMMA_SCAN_STEP, hi): one NumPy pass evaluates f over
    the whole grid and proposes the few grid points where the crossing can
    be, then the scalar f (math.log) decides at those points and bisects
    inside the bracket.  The answer is the one a scalar scan of the grid
    gives, to the bit.

    Raises InfeasibilityError when no shell weight in the physical range
    achieves the target, reporting the range f covered on the grid, hi
    included.
    """
    if spec.d != 2:
        raise UnsupportedError("the diagonal family is implemented for qubits only")
    _check_vector_size(spec.dim)
    s = float(total_entropy)
    n = spec.n
    p = thermal_params(spec).populations[1]
    s_local = thermal_entropy(spec)
    if not s >= s_local - 1e-9:
        raise DomainError(
            f"global entropy {s} below the locally thermal minimum {s_local!r}"
        )
    # a target within the tolerance below a zero minimum is the S = 0 state
    shell = smallest_shell_for_entropy(n, max(s, 0.0))
    shell_size = math.comb(n, shell)
    ln_shell_size = math.log(shell_size)

    # weight nonnegativity bounds the scan: top_weight >= 0 and ground_weight >= 0
    hi = 1.0
    if shell > 0:
        hi = min(hi, n * p / shell)
    hi = min(hi, n * (1.0 - p) / (n - shell))

    def resid(g: float) -> float:
        return _shell_family_entropy(g, p, n, shell, ln_shell_size) - s

    grid = np.minimum(np.arange(int(math.ceil(hi / GAMMA_SCAN_STEP)) + 1) * GAMMA_SCAN_STEP, hi)
    approx = _shell_family_entropy(grid, p, n, shell, ln_shell_size, _xlnx_array) - s
    gamma = _first_crossing(resid, grid, approx)
    if gamma is None:
        low, high = _scalar_extremes(resid, grid, approx)
        raise InfeasibilityError(
            f"no shell weight in [0, {hi!r}] reaches entropy {s}; "
            f"family covers [{low + s!r}, {high + s!r}]"
        )

    top = p - gamma * shell / n
    ground = 1.0 - p - gamma * (n - shell) / n
    diag = np.zeros(spec.dim)
    diag[0] += ground
    diag[-1] += top
    if gamma > 0.0:
        diag[dicke_index_set(n, shell)] += gamma / shell_size
    params = DiagonalFamilyParams(
        ground_weight=ground,
        top_weight=top,
        shell_weight=gamma,
        shell_excitations=shell,
    )
    return DensityMatrix.from_diagonal(diag), params


# bounds |approx - resid| on the grid: the two logs differ by a few ulp on
# three terms of size at most 1/e, a few 1e-16, plus rounding of the sum
_ARRAY_SLACK = 1e-13


def _first_crossing(resid, grid: np.ndarray, approx: np.ndarray):
    """First grid point where resid reaches zero or changes sign, refined by bisection.

    approx is resid over grid from the array pass.  A scalar scan stops at
    the first point where |resid| <= GAMMA_BISECTION_TOL, which makes
    |approx| at most the tolerance plus _ARRAY_SLACK, or where resid
    changes sign; at points that miss the tolerance |resid| is far above
    the slack, so approx changes sign there too.  Only those candidates
    are evaluated with resid, in order.
    """
    # a target within rounding of the f(0) entropy floor is the gamma = 0 state
    if abs(resid(0.0)) <= 1e-9:
        return 0.0
    near = np.abs(approx) <= GAMMA_BISECTION_TOL + _ARRAY_SLACK
    negative = approx < 0.0
    candidates = near[1:] | (negative[1:] != negative[:-1])
    for k in np.flatnonzero(candidates) + 1:
        prev_g, g = float(grid[k - 1]), float(grid[k])
        prev_r, r = resid(prev_g), resid(g)
        if abs(r) <= GAMMA_BISECTION_TOL:
            return g
        if (prev_r < 0.0) != (r < 0.0):
            return _bisect(resid, prev_g, prev_r, g)
    return None


def _bisect(resid, lo: float, lo_r: float, up: float) -> float:
    """Root of resid in the bracket [lo, up], where resid(lo) = lo_r."""
    for _ in range(200):
        mid = 0.5 * (lo + up)
        mid_r = resid(mid)
        if abs(mid_r) <= GAMMA_BISECTION_TOL:
            return mid
        if (mid_r < 0.0) == (lo_r < 0.0):
            lo, lo_r = mid, mid_r
        else:
            up = mid
    return 0.5 * (lo + up)


def _scalar_extremes(resid, grid: np.ndarray, approx: np.ndarray) -> tuple[float, float]:
    """Smallest and largest resid over grid, evaluated only near the extremes of approx."""
    def resid_at(mask):
        return [resid(float(g)) for g in grid[mask]]

    return (min(resid_at(approx <= approx.min() + 2.0 * _ARRAY_SLACK)),
            max(resid_at(approx >= approx.max() - 2.0 * _ARRAY_SLACK)))
