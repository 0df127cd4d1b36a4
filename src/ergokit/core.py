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

# square tiles of the Hermiticity check: 128 x 128 complex entries (256 kB),
# so a tile and its transposed partner stay in cache
_HERMITICITY_TILE = 128
# entries per row group or row slab of a pair-rotation update (512 kB)
_ROTATION_SLAB = 1 << 15


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

def _hermiticity_defect(arr: np.ndarray) -> float:
    """Largest |arr[i, j] - conj(arr[j, i])|; NaN or inf entries give NaN.

    Walks the square tiles with i <= j, so each entry is read once and no
    column is read with a stride.
    """
    worst = 0.0
    dim, tile = arr.shape[0], _HERMITICITY_TILE
    with np.errstate(invalid="ignore"):
        for lo in range(0, dim, tile):
            for col in range(lo, dim, tile):
                upper = arr[lo:lo + tile, col:col + tile]
                lower = arr[col:col + tile, lo:lo + tile]
                worst = np.maximum(worst, np.abs(upper - lower.conj().T).max())
    return float(worst)


def _coherence_max(arr: np.ndarray, labels: np.ndarray, block: int = 1024) -> float:
    """Largest |arr[i, j]| with labels[i] != labels[j], one row slab at a time."""
    worst = 0.0
    for lo in range(0, arr.shape[0], block):
        slab = np.abs(arr[lo:lo + block])
        slab[labels[lo:lo + block, None] == labels] = 0.0
        worst = max(worst, float(slab.max()))
    return worst


class _Fresh:
    """An array built inside the package that no caller holds a reference to.

    DensityMatrix adopts it as its entries instead of taking the copy it
    makes of any other input.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


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
        if isinstance(self.entries, _Fresh):
            arr = np.asarray(self.entries.array, dtype=complex, order="C")
        else:
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
        return _coherence_max(self.entries, np.arange(self.dim))

    @classmethod
    def from_diagonal(cls, populations) -> "DensityMatrix":
        pops = np.asarray(populations, dtype=float)
        if pops.ndim != 1:
            raise ShapeError("populations must be a vector")
        arr = np.zeros((pops.size, pops.size), dtype=complex)
        np.fill_diagonal(arr, pops)
        return cls(_Fresh(arr))

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        vec = np.asarray(amplitudes, dtype=complex).ravel()
        return cls(_Fresh(np.outer(vec, vec.conj())))


# ---------------------------------------------------------------------------
# structured (pair-rotation) unitaries
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StructuredUnitary:
    """Sparse unitary: independent 2-dimensional rotations plus identity.

    rotations is a sequence of (index_a, index_b, angle); all indices are
    pairwise distinct, so the rotations commute and the matrix is exactly
    unitary.  The 2x2 block on (index_a, index_b) is
    ((cos, sin), (-sin, cos)).  The index, cosine and sine arrays that
    apply_unitary uses are built once, at construction.
    """

    rotations: tuple[tuple[int, int, float], ...]
    dim: int
    _pairs: np.ndarray = field(init=False, repr=False)
    _cos: np.ndarray = field(init=False, repr=False)
    _sin: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rots = tuple((int(a), int(b), float(t)) for a, b, t in self.rotations)
        object.__setattr__(self, "rotations", rots)
        pairs = np.array([(a, b) for a, b, _ in rots], dtype=np.int64).reshape(-1, 2)
        outside = ((pairs < 0) | (pairs >= self.dim)).any(axis=1)
        if outside.any():
            a, b = pairs[outside][0]
            raise ValidityError(f"rotation indices ({a}, {b}) outside dimension {self.dim}")
        if np.unique(pairs).size != pairs.size:
            raise ValidityError("rotation pairs must be disjoint")
        # math.cos and math.sin, as materialize() uses, once per distinct angle
        angles, where = np.unique([t for _, _, t in rots], return_inverse=True)
        cos = np.array([math.cos(t) for t in angles])[where]
        sin = np.array([math.sin(t) for t in angles])[where]
        for name, value in (("_pairs", pairs.T), ("_cos", cos), ("_sin", sin)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

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
    return DensityMatrix(_Fresh(np.einsum("iajibj->ab", tensor)))


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


def _rotate(entries: np.ndarray, unitary: StructuredUnitary) -> np.ndarray:
    """U entries U^dagger for pair rotations: rows, then columns.

    Row pairs are updated a group of rotations at a time and column pairs
    one contiguous row slab at a time; each temporary holds at most
    _ROTATION_SLAB entries.  The expressions are those of a per-rotation
    update, so the entries are bit-identical to it.
    """
    out = entries.copy()
    dim = out.shape[0]
    a, b = unitary._pairs
    c, s = unitary._cos, unitary._sin
    step = max(1, _ROTATION_SLAB // dim)
    for lo in range(0, a.size, step):
        ia, ib = a[lo:lo + step], b[lo:lo + step]
        ca, sa = c[lo:lo + step, None], s[lo:lo + step, None]
        row_a, row_b = out[ia], out[ib]
        out[ia] = ca * row_a + sa * row_b
        out[ib] = -sa * row_a + ca * row_b
    for lo in range(0, dim, step):
        rows = out[lo:lo + step]
        col_a, col_b = rows[:, a], rows[:, b]
        rows[:, a] = c * col_a + s * col_b
        rows[:, b] = -s * col_a + c * col_b
    return out


def apply_unitary(rho: DensityMatrix, unitary) -> DensityMatrix:
    """Conjugate a state by a unitary: U rho U^dagger.

    Accepts either a dense matrix (checked for unitarity) or a
    StructuredUnitary, whose pair rotations are applied as vectorized row
    and column updates without materializing the full matrix.
    """
    if isinstance(unitary, StructuredUnitary):
        if unitary.dim != rho.dim:
            raise ShapeError(
                f"unitary dimension {unitary.dim} does not match state dimension {rho.dim}"
            )
        return DensityMatrix(_Fresh(_rotate(rho.entries, unitary)))

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
    return DensityMatrix(_Fresh(mat @ rho.entries @ mat.conj().T))
