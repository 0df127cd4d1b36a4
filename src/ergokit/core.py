"""Multi-qudit Hilbert-space algebra.

Hamming weights, Hamiltonian construction, partial trace, spectrum,
entropy and unitary application for systems of n identical d-level
subsystems with a non-interacting total Hamiltonian.

The spectrum is solved one connected block of the nonzero pattern at a
time and cached on the frozen DensityMatrix, so each state is solved once.

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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

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
        if not all(a <= b < math.inf for a, b in zip(energies, energies[1:])):
            raise DomainError(f"local energies must be finite and non-decreasing: {energies}")
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
    # blockwise to bound temporary memory; NaN or inf entries give NaN
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for lo in range(0, arr.shape[0], block):
            hi = lo + block
            worst = np.maximum(worst, np.abs(arr[lo:hi, :] - arr[:, lo:hi].conj().T).max())
    return float(worst)


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

    Finite entries, Hermiticity and trace are verified at construction;
    positivity is verified wherever eigenvalues are computed (eigenvalues
    below -1e-10 raise; smaller negative ones are kept as they are, and the
    entropy skips them).
    """

    entries: np.ndarray
    _spectrum: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex, copy=True, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"density matrix must be square, got shape {arr.shape}")
        defect = _hermiticity_defect(arr)
        if not defect <= HERMITICITY_TOL:
            raise ValidityError(f"matrix is not finite and Hermitian (defect {defect:.3e})")
        trace = float(arr.trace().real)
        if not abs(trace - 1.0) <= TRACE_TOL:
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


def _block_eigenvalues(arr: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian array, unsorted, one connected block at a time.

    Blocks are the connected components of the nonzero pattern (i and j are
    linked when arr[i, j] or arr[j, i] is nonzero); isolated indices take
    their diagonal entry, equal-size blocks share one solver call and a
    block covering every index is solved in place.
    """
    linked = arr != 0
    np.fill_diagonal(linked, False)
    members = np.flatnonzero(linked.any(axis=1) | linked.any(axis=0))
    labels = _component_labels(linked, members)
    values = [np.delete(arr.diagonal().real, members)]
    order = np.argsort(labels, kind="stable")  # members of a component are contiguous
    sizes = np.bincount(labels)[labels[order]]
    for size in np.unique(sizes):
        if size == arr.shape[0]:
            return _eigvalsh(arr)
        index = members[order[sizes == size]].reshape(-1, size)
        blocks = arr[index[:, :, None], index[:, None, :]]
        complex_ = blocks.imag.any(axis=(1, 2))
        values += [_eigvalsh(blocks[~complex_]), _eigvalsh(blocks[complex_])]
    return np.concatenate(values)


def _eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of Hermitian blocks, by the real solver if all are real."""
    try:
        return np.linalg.eigvalsh(stack if stack.imag.any() else stack.real).ravel()
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def _component_labels(linked: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per member, the smallest index in its component (min-label propagation).

    Member row slabs of at most 2^20 entries pass labels along their links
    both ways, so the one dim x dim mask is never transposed.
    """
    dim = linked.shape[0]
    step = max(1, (1 << 20) // dim)
    labels = np.arange(dim)
    while True:
        hooked = labels.copy()
        for lo in range(0, members.size, step):
            rows = members[lo:lo + step]
            slab = linked[rows]
            hooked[rows] = np.minimum(hooked[rows], np.where(slab, labels, dim).min(axis=1))
            np.minimum(hooked, np.where(slab, labels[rows, None], dim).min(axis=0), out=hooked)
        hooked = hooked[hooked]  # pointer jumping
        if np.array_equal(hooked, labels):
            return labels[members]
        labels = hooked


def state_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of a density matrix, sorted descending, as a read-only array.

    Solved on the first call and cached on the state, so entropy, ergotropy
    and the passive state of one state share one solve.
    """
    if rho._spectrum is None:
        vals = np.sort(_block_eigenvalues(rho.entries))[::-1]
        if vals[-1] < -PSD_TOL:
            raise ValidityError(f"state has eigenvalue {vals[-1]:.3e} below -{PSD_TOL}")
        vals.setflags(write=False)
        object.__setattr__(rho, "_spectrum", vals)
    return rho._spectrum


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * ln lam) in nats, with 0 ln 0 = 0."""
    lam = state_eigenvalues(rho)
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
