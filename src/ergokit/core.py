"""Multi-qudit Hilbert-space algebra.

Hamming weights, Hamiltonian construction, partial trace, spectrum,
entropy and unitary application for systems of n identical d-level
subsystems with a non-interacting total Hamiltonian.

Conventions
-----------
* The local energy ladder starts at zero and is non-decreasing.
* Entropy is measured in nats (natural logarithm) throughout.
* Product-basis linearization is big-endian: subsystem 1 is the most
  significant digit, so linear = sum_k digits[k] * d**(n-1-k).
* Subsystem indices in interfaces are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CapacityError,
    DomainError,
    NumericalError,
    ShapeError,
    ValidityError,
)

DEFAULT_DIM_CAP = 16384

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARY_TOL = 1e-10


# ---------------------------------------------------------------------------
# system specification and Hamming weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of the ensemble: n subsystems of dimension d.

    local_energies is the common single-subsystem ladder (ground energy
    zero, non-decreasing); beta is the reference inverse temperature in
    units of 1/energy.
    """

    n: int
    d: int
    local_energies: tuple[float, ...]
    beta: float
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"subsystem count must be positive, got {self.n}")
        if self.d < 2:
            raise DomainError(f"local dimension must be at least 2, got {self.d}")
        energies = tuple(float(e) for e in self.local_energies)
        object.__setattr__(self, "local_energies", energies)
        if len(energies) != self.d:
            raise DomainError(
                f"expected {self.d} local energies, got {len(energies)}"
            )
        if energies[0] != 0.0:
            raise DomainError(f"ground energy must be zero, got {energies[0]}")
        if any(b < a for a, b in zip(energies, energies[1:])):
            raise DomainError(f"local energies must be non-decreasing: {energies}")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"inverse temperature must be finite and >= 0, got {self.beta}")
        if self.d ** self.n > self.dim_cap:
            raise CapacityError(
                f"global dimension {self.d}**{self.n} exceeds cap {self.dim_cap}"
            )

    @property
    def dim(self) -> int:
        return self.d ** self.n

    @property
    def energy_gap(self) -> float:
        """Energy of the first excited local level."""
        return self.local_energies[1]

    @classmethod
    def qubits(cls, n: int, beta: float, energy: float = 1.0,
               dim_cap: int = DEFAULT_DIM_CAP) -> "SystemSpec":
        """Spec for n two-level subsystems with ladder (0, energy)."""
        return cls(n=n, d=2, local_energies=(0.0, float(energy)), beta=beta,
                   dim_cap=dim_cap)


@lru_cache(maxsize=None)
def hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every linear index of an n-qubit register."""
    w = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        w = np.concatenate([w, w + 1])
    w.setflags(write=False)
    return w


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

def _hermiticity_defect(arr: np.ndarray, block: int = 1024) -> float:
    # blockwise to bound temporary memory at large dimension
    worst = 0.0
    dim = arr.shape[0]
    for lo in range(0, dim, block):
        hi = min(lo + block, dim)
        worst = max(worst, float(np.abs(arr[lo:hi, :] - arr[:, lo:hi].conj().T).max()))
    return worst


def _off_diagonal_max(arr: np.ndarray, block: int = 1024) -> float:
    worst = 0.0
    dim = arr.shape[0]
    for lo in range(0, dim, block):
        hi = min(lo + block, dim)
        blk = np.abs(arr[lo:hi, :])
        blk[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        worst = max(worst, float(blk.max()))
    return worst


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense Hermitian, unit-trace operator on the global space.

    Hermiticity and trace are verified at construction; positivity is
    verified wherever eigenvalues are computed (negative eigenvalues
    below -1e-10 raise, anything above is clipped to zero).
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex, copy=True, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"density matrix must be square, got shape {arr.shape}")
        defect = _hermiticity_defect(arr)
        if defect > HERMITICITY_TOL:
            raise ValidityError(f"matrix is not Hermitian (defect {defect:.3e})")
        trace = float(arr.trace().real)
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidityError(f"trace must be 1, got {trace!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()

    def off_diagonal_max(self) -> float:
        return _off_diagonal_max(self.entries)

    @classmethod
    def from_diagonal(cls, populations) -> "DensityMatrix":
        pops = np.asarray(populations, dtype=float)
        if pops.ndim != 1:
            raise ShapeError("populations must be a vector")
        return cls(np.diag(pops.astype(complex)))

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        vec = np.asarray(amplitudes, dtype=complex).ravel()
        return cls(np.outer(vec, vec.conj()))


# ---------------------------------------------------------------------------
# structured (pair-rotation) unitaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StructuredUnitary:
    """Sparse unitary: independent 2-dimensional rotations plus identity.

    rotations is a sequence of (index_a, index_b, angle); all indices are
    pairwise distinct, so the rotations commute and the matrix is exactly
    unitary.  The 2x2 block on (index_a, index_b) is
    ((cos, sin), (-sin, cos)).
    """

    rotations: tuple[tuple[int, int, float], ...]
    dim: int

    def __post_init__(self):
        rots = tuple((int(a), int(b), float(t)) for a, b, t in self.rotations)
        object.__setattr__(self, "rotations", rots)
        seen = set()
        for a, b, _ in rots:
            if not (0 <= a < self.dim and 0 <= b < self.dim):
                raise ValidityError(f"rotation indices ({a}, {b}) outside dimension {self.dim}")
            if a == b or a in seen or b in seen:
                raise ValidityError("rotation pairs must be disjoint")
            seen.add(a)
            seen.add(b)

    def materialize(self) -> np.ndarray:
        """Dense matrix form (for testing and small systems)."""
        mat = np.eye(self.dim, dtype=complex)
        for a, b, theta in self.rotations:
            c, s = math.cos(theta), math.sin(theta)
            mat[a, a] = c
            mat[a, b] = s
            mat[b, a] = -s
            mat[b, b] = c
        return mat


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def build_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Diagonal of the non-interacting total Hamiltonian, basis-ordered.

    Entry at a linear index equals the sum of the local energies selected
    by its digits.
    """
    diag = np.zeros(1)
    ladder = np.asarray(spec.local_energies)
    for _ in range(spec.n):
        diag = (diag[:, None] + ladder[None, :]).ravel()
    return diag


def partial_trace_to(rho: DensityMatrix, spec: SystemSpec, keep: int) -> DensityMatrix:
    """Reduced state of one subsystem (1-based index), tracing out the rest."""
    if rho.dim != spec.dim:
        raise ShapeError(f"state dimension {rho.dim} does not match spec dimension {spec.dim}")
    if not 1 <= keep <= spec.n:
        raise DomainError(f"subsystem index {keep} outside [1, {spec.n}]")
    d = spec.d
    left = d ** (keep - 1)
    right = d ** (spec.n - keep)
    tensor = rho.entries.reshape(left, d, right, left, d, right)
    reduced = np.einsum("iajibj->ab", tensor)
    return DensityMatrix(reduced)


def state_eigenvalues(rho: DensityMatrix, validate: bool = True) -> np.ndarray:
    """Eigenvalues of a density matrix, sorted descending.

    Exactly diagonal matrices bypass the dense eigensolver; real symmetric
    input uses the real LAPACK path.
    """
    if rho.off_diagonal_max() == 0.0:
        vals = rho.diagonal
    else:
        arr = rho.entries
        try:
            if float(np.abs(arr.imag).max()) <= 1e-14:
                vals = np.linalg.eigvalsh(arr.real)
            else:
                vals = np.linalg.eigvalsh(arr)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    if validate and float(vals.min()) < -PSD_TOL:
        raise ValidityError(f"state has eigenvalue {float(vals.min()):.3e} below -{PSD_TOL}")
    return np.sort(vals)[::-1].copy()


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * ln lam) in nats, with 0 ln 0 = 0."""
    lam = state_eigenvalues(rho)
    lam = np.clip(lam, 0.0, None)
    nz = lam[lam > 0.0]
    return float(-(nz * np.log(nz)).sum() + 0.0)


def apply_unitary(rho: DensityMatrix, unitary) -> DensityMatrix:
    """Conjugate a state by a unitary: U rho U^dagger.

    Accepts either a dense matrix (checked for unitarity) or a
    StructuredUnitary, which is applied as row/column rotations without
    materializing the full matrix.
    """
    if isinstance(unitary, StructuredUnitary):
        if unitary.dim != rho.dim:
            raise ShapeError(
                f"unitary dimension {unitary.dim} does not match state dimension {rho.dim}"
            )
        out = rho.entries.copy()
        for a, b, theta in unitary.rotations:
            c, s = math.cos(theta), math.sin(theta)
            row_a = out[a, :].copy()
            row_b = out[b, :]
            out[a, :] = c * row_a + s * row_b
            out[b, :] = -s * row_a + c * row_b
        for a, b, theta in unitary.rotations:
            c, s = math.cos(theta), math.sin(theta)
            col_a = out[:, a].copy()
            col_b = out[:, b]
            out[:, a] = c * col_a + s * col_b
            out[:, b] = -s * col_a + c * col_b
        return DensityMatrix(out)

    mat = np.asarray(unitary, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"unitary must be square, got shape {mat.shape}")
    if mat.shape[0] != rho.dim:
        raise ShapeError(
            f"unitary dimension {mat.shape[0]} does not match state dimension {rho.dim}"
        )
    defect = float(np.abs(mat @ mat.conj().T - np.eye(rho.dim)).max())
    if defect > UNITARY_TOL:
        raise ValidityError(f"matrix is not unitary (defect {defect:.3e})")
    return DensityMatrix(mat @ rho.entries @ mat.conj().T)
