"""Constructors for the locally thermal state families.

Every constructor returns a global state whose single-subsystem marginals
all equal the Gibbs state at the reference inverse temperature:

* the entangled pure state with Gibbs-weighted amplitudes on |a...a>,
* its dephased (diagonal, separable) counterpart of minimal entropy,
* product thermal states at an arbitrary temperature,
* the Dicke mixture matching the thermal diagonal on qubits,
* a three-weight diagonal family hitting a prescribed global entropy.

The first two and the last are stored by class (`core._Record`), with
no vector over the 2^n basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix, SystemSpec, _Parts, _Record, _check_bytes, _check_vector_size,
    _hamming_weights, _integer, _real,
)
from .errors import DomainError, InfeasibilityError, UnsupportedError
from .passivity import thermal_params

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


def entangled_pure_state(spec: SystemSpec) -> DensityMatrix:
    """The locally thermal entangled pure state (n >= 2).

    For a single subsystem the same amplitude vector is pure, hence not
    thermal, so n = 1 is rejected.
    """
    if spec.n < 2:
        raise DomainError("local thermality of a pure state requires n >= 2")
    amp = np.sqrt(thermal_params(spec).populations)
    _check_vector_size(spec.dim)
    return DensityMatrix(_Record(spec, (), (), [(_single_states(spec), np.outer(amp, amp))]))


def separable_optimal_state(spec: SystemSpec) -> DensityMatrix:
    """Gibbs-weighted classical mixture of |a...a>: the dephased pure state.

    This is the minimal-entropy separable locally thermal state; its global
    entropy equals the single-subsystem thermal entropy.
    """
    if spec.n < 2:
        raise DomainError("the correlated mixture requires n >= 2")
    params = thermal_params(spec)
    _check_vector_size(spec.dim)
    return DensityMatrix(_Record(spec, _single_states(spec), params.populations))


def _single_states(spec: SystemSpec) -> list:
    """The classes of the states |a...a>, a = 0..d-1: all n subsystems at level a."""
    return [(0,) * a + (spec.n,) + (0,) * (spec.d - 1 - a) for a in range(spec.d)]


def product_thermal_state(spec: SystemSpec, beta_prime: float | None = None) -> DensityMatrix:
    """Product of identical Gibbs states at inverse temperature beta_prime."""
    pops = np.asarray(thermal_params(spec, beta_prime).populations)
    _check_vector_size(spec.dim)
    diag = np.ones(1)
    for _ in range(spec.n):
        diag = np.multiply.outer(diag, pops).ravel()
    return DensityMatrix.from_diagonal(diag)


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
    weights = _hamming_weights(n)
    for k in range(n + 1):
        amp = math.sqrt(p ** k * (1.0 - p) ** (n - k))
        shells.setdefault(math.comb(n, k), []).append((np.flatnonzero(weights == k), amp * amp))
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
    shell can never help.  ln C(n, D) rises with D up to n//2, so D is
    found by bisection, in O(log n) binomials.
    """
    n, entropy = _integer(n, "subsystem count"), _real(entropy, "entropy")
    if n < 0:
        raise DomainError(f"subsystem count must be nonnegative, got {n}")
    if not entropy >= 0.0:
        raise DomainError(f"entropy must be nonnegative, got {entropy}")
    top = math.log(math.comb(n, n // 2))
    if not top >= entropy:
        raise InfeasibilityError(f"entropy {entropy} exceeds ln C({n}, {n // 2}) = {top!r}")
    lo, hi = -1, n // 2  # ln C(n, hi) >= entropy, and lo is below the shell sought
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if math.log(math.comb(n, mid)) >= entropy else (mid, hi)
    return hi


def _xlnx(x: float) -> float:
    return 0.0 if x <= 0.0 else x * math.log(x)


def _shell_family_entropy(gamma: float, p: float, n: int, shell: int,
                          ln_shell_size: float) -> float:
    """Global entropy f(gamma) of the three-weight diagonal family at shell weight gamma."""
    top = p - gamma * shell / n
    ground = 1.0 - p - gamma * (n - shell) / n
    return -(_xlnx(ground) + _xlnx(top) + _xlnx(gamma)) + gamma * ln_shell_size


def _shell_family_slope(gamma: float, p: float, n: int, shell: int,
                        ln_shell_size: float) -> float:
    """f' = ((n-D) ln ground + D ln top)/n - ln gamma + ln C(n, D); -inf at a weight <= 0."""
    top = p - gamma * shell / n
    ground = 1.0 - p - gamma * (n - shell) / n
    if ground <= 0.0 or top <= 0.0:
        return -math.inf
    return ((n - shell) * math.log(ground) + shell * math.log(top)) / n \
        - math.log(gamma) + ln_shell_size


def _rising_root(resid, slope, x: float, hi: float):
    """Root of a concave resid by Newton steps from x, which lies at or below it.

    Tangents of a concave function lie above it, so the steps rise to the
    root with no bracket, to resid >= 0 or a step of at most 4 ulp.  None
    once the slope is <= 0 or hi is reached first: then resid < 0 on [0, hi].
    """
    for _ in range(100):
        r = resid(x)
        if r >= 0.0:
            return x
        d = slope(x)
        if x >= hi or not d > 0.0:
            return None
        new = min(x - r / d, hi)
        if new - x <= 4.0 * math.ulp(x):
            return new
        x = new
    return None


def diagonal_state_at_entropy(
    spec: SystemSpec, total_entropy: float
) -> tuple[DensityMatrix, DiagonalFamilyParams]:
    """Diagonal locally thermal qubit state with the prescribed global entropy.

    A target outside [S(tau_beta), n S(tau_beta)] (within 1e-9) raises
    DomainError, since entropy is subadditive.  The state puts weight
    gamma on the smallest shell D with ln C(n, D) >= S, where the entropy
    f(gamma) is concave (affine weights, concave -x ln x, linear
    gamma ln C(n, D)); gamma is the rising root of f = S, by Newton steps
    on the closed-form f', or 0 for a target within 1e-9 of f(0).

    As a forward scan of the grid gamma_k = min(k GAMMA_SCAN_STEP, hi)
    would, S is refused exactly when f < S - GAMMA_BISECTION_TOL at every
    grid point: InfeasibilityError reports the range f covers there, hi
    included.  By concavity only the grid points around the root or the
    peak of f need f.
    """
    if spec.d != 2:
        raise UnsupportedError("the diagonal family is implemented for qubits only")
    _check_vector_size(spec.dim)
    s = _real(total_entropy, "total entropy")
    n = spec.n
    params = thermal_params(spec)
    p, s_local = params.populations[1], params.entropy
    if not s_local - 1e-9 <= s <= n * s_local + 1e-9:
        raise DomainError(f"global entropy {s} outside the locally thermal range "
                          f"[S(tau_beta), n S(tau_beta)] = [{s_local!r}, {n * s_local!r}]")
    # a target within the tolerance below a zero minimum is the S = 0 state
    shell = smallest_shell_for_entropy(n, max(s, 0.0))

    # weight nonnegativity bounds gamma: top_weight >= 0 and ground_weight >= 0
    hi = min(1.0, n * p / shell if shell else 1.0, n * (1.0 - p) / (n - shell))
    gamma = _shell_weight(s, p, n, shell, hi)

    top = p - gamma * shell / n
    ground = 1.0 - p - gamma * (n - shell) / n
    shells = {0: ground, n: top}
    shells[shell] = shells.get(shell, 0.0) + gamma
    state = DensityMatrix(_Record(spec, [(n - k, k) for k in shells], list(shells.values())))
    return state, DiagonalFamilyParams(ground, top, gamma, shell)


def _shell_weight(s: float, p: float, n: int, shell: int, hi: float) -> float:
    """The shell weight gamma in [0, hi] of diagonal_state_at_entropy, or InfeasibilityError."""
    ln_shell_size = math.log(math.comb(n, shell))

    def resid(g: float) -> float:
        return _shell_family_entropy(g, p, n, shell, ln_shell_size) - s

    def slope(g: float) -> float:
        return _shell_family_slope(g, p, n, shell, ln_shell_size)

    def on_grid(k: int) -> float:
        return resid(min(k * GAMMA_SCAN_STEP, hi))

    # a target within rounding of the f(0) entropy floor is the gamma = 0 state
    r0 = resid(0.0)
    if r0 >= -1e-9:
        return 0.0
    # Here S > 0, so shell >= 1 and p > 0.  Both weights fall with g, so
    # f(g) - f(0) <= U(g) = g (c - ln g), where c - 1 is f'(g) + ln g at
    # g = 0.  With K = c - ln(-r0) >= 1, g = -r0 / (K + ln 2K) lies on U's
    # rising branch with U(g) <= -r0, so at or below the root; K < 1 puts
    # -r0 above U's peak, and f never reaches S.
    c = ((n - shell) * math.log(1.0 - p) + shell * math.log(p)) / n + ln_shell_size + 1.0
    big_k = c - math.log(-r0)
    root = None
    if big_k >= 1.0:
        root = _rising_root(resid, slope, min(-r0 / (big_k + math.log(2.0 * big_k)), hi), hi)
    steps = math.ceil(hi / GAMMA_SCAN_STEP)
    tol = GAMMA_BISECTION_TOL
    if root is not None:
        # {resid >= -tol} is an interval around root: it holds a grid point
        # exactly when it holds one of the two around root
        k = math.ceil(root / GAMMA_SCAN_STEP)
        if on_grid(k) >= -tol or (k > 1 and on_grid(k - 1) >= -tol):
            return root
    # f' > 0 at g_lo, and f' <= 0 at g_up unless up = steps, so the grid's
    # largest f is at g_lo or g_up
    lo, up = 0, steps
    while up - lo > 1:
        mid = (lo + up) // 2
        lo, up = (mid, up) if slope(min(mid * GAMMA_SCAN_STEP, hi)) > 0.0 else (lo, mid)
    r_lo, r_up = on_grid(lo), on_grid(up)
    if max(r_lo, r_up) >= -tol:
        # f peaks below S, so this is the first grid point a scan accepts
        return min((lo if r_lo >= -tol else up) * GAMMA_SCAN_STEP, hi)
    # concave f is smallest at an end of the grid; hi may lie a hair past g_(K-1)
    low = min(r0, on_grid(steps - 1), on_grid(steps))
    raise InfeasibilityError(
        f"no shell weight in [0, {hi!r}] reaches entropy {s}; "
        f"family covers [{low + s!r}, {max(r_lo, r_up) + s!r}]"
    )
