"""Multi-qudit Hilbert-space algebra.

Hamming weights, Hamiltonian construction, partial trace, spectrum,
entropy and unitary application for systems of n identical d-level
subsystems with a non-interacting total Hamiltonian.

A state is stored as populations plus coherence blocks: the diagonal of
every basis index outside a block, and dense Hermitian blocks on
disjoint index sets.  The diagonal, entangled and pair-rotated states
hold O(dim) numbers this way and the Dicke mixture one block per
excitation shell, so building, rotating, tracing and solving the
package's states never touches a dim x dim array; a caller's dense array
is one block over every index.  The spectrum is solved block by block
and cached on the state, so each state is solved once.

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
# largest dense complex dim x dim array built on demand (entries, partial
# transpose, dense unitaries): 1 GiB, which admits dim 8192
DENSE_BYTES_MAX = 1 << 30

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

def _check_dense_size(dim: int):
    """Raise CapacityError before a dense complex dim x dim array over DENSE_BYTES_MAX."""
    size = 16 * dim * dim
    if size > DENSE_BYTES_MAX:
        raise CapacityError(
            f"a dense {dim} x {dim} matrix needs {size} bytes, "
            f"over the limit of {DENSE_BYTES_MAX}"
        )


def _hermiticity_defect(arr: np.ndarray) -> float:
    """Largest |arr[..., i, j] - conj(arr[..., j, i])| of a matrix or a stack of them.

    NaN or inf entries give NaN.  Walks the square tiles with i <= j, so
    each entry is read once and no column is read with a stride.
    """
    worst = 0.0
    dim, tile = arr.shape[-1], _HERMITICITY_TILE
    with np.errstate(invalid="ignore"):
        for lo in range(0, dim, tile):
            for col in range(lo, dim, tile):
                upper = arr[..., lo:lo + tile, col:col + tile]
                lower = arr[..., col:col + tile, lo:lo + tile]
                worst = np.maximum(worst, np.abs(upper - lower.conj().swapaxes(-1, -2)).max())
    return float(worst)


def _coherence_max(rho: "DensityMatrix", labels: np.ndarray, slab: int = 1024) -> float:
    """Largest |rho[i, j]| with labels[i] != labels[j], read from the blocks.

    Each group is read a slab of block rows at a time, so a single dense
    block never needs a dim x dim mask.
    """
    worst = 0.0
    for index, values in rho.groups:
        lab = labels[index]
        for lo in range(0, index.shape[1], slab):
            part = np.abs(values[:, lo:lo + slab])
            part[lab[:, lo:lo + slab, None] == lab[:, None, :]] = 0.0
            worst = max(worst, float(part.max()))
    return worst


class _Parts:
    """Populations and block groups built inside the package.

    DensityMatrix adopts them as they are, where it copies a caller's array.
    """

    __slots__ = ("populations", "groups")

    def __init__(self, populations: np.ndarray, groups=()):
        self.populations = populations
        self.groups = tuple(groups)


def _single_block(arr: np.ndarray) -> _Parts:
    """Parts of a dense matrix: one block over every index."""
    dim = arr.shape[0]
    return _Parts(np.zeros(dim), [(np.arange(dim)[None], arr[None])])


class DensityMatrix:
    """Hermitian, unit-trace operator on the global space, stored in parts.

    populations is the diagonal of every index outside a block (zero at
    block indices).  groups is a tuple of (index, values) pairs: index has
    shape (m, k) with ascending rows, values has shape (m, k, k), and all
    blocks are disjoint.  A dense array given by a caller is copied into one
    block over every index.  entries is the dense matrix, built on each
    access (read-only) unless the state is that one block.

    Finite entries, Hermiticity and trace are verified at construction;
    positivity is verified wherever eigenvalues are computed (eigenvalues
    below -1e-10 raise; smaller negative ones are kept as they are, and the
    entropy skips them).  States compare and hash by identity.
    """

    def __init__(self, entries):
        if isinstance(entries, _Parts):
            parts = entries
        else:
            arr = np.array(entries, dtype=complex, copy=True, order="C")
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ShapeError(f"density matrix must be square, got shape {arr.shape}")
            parts = _single_block(arr)
        # a non-finite population makes the trace non-finite
        trace = float(parts.populations.sum())
        for index, values in parts.groups:
            defect = _hermiticity_defect(values)
            if not defect <= HERMITICITY_TOL:
                raise ValidityError(f"matrix is not finite and Hermitian (defect {defect:.3e})")
            trace += float(values.diagonal(axis1=1, axis2=2).real.sum())
            index.setflags(write=False)
            values.setflags(write=False)
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValidityError(f"trace must be 1, got {trace!r}")
        parts.populations.setflags(write=False)
        self.populations = parts.populations
        self.groups = parts.groups
        self._spectrum = None

    @property
    def dim(self) -> int:
        return self.populations.size

    @property
    def entries(self) -> np.ndarray:
        dense = self._dense_block()
        if dense is not None:
            return dense
        _check_dense_size(self.dim)
        arr = np.zeros((self.dim, self.dim), dtype=complex)
        np.fill_diagonal(arr, self.populations)
        for index, values in self.groups:
            arr[index[:, :, None], index[:, None, :]] = values
        arr.setflags(write=False)
        return arr

    @property
    def diagonal(self) -> np.ndarray:
        diag = self.populations.copy()
        for index, values in self.groups:
            diag[index] = values.diagonal(axis1=1, axis2=2).real
        return diag

    def off_diagonal_max(self) -> float:
        return _coherence_max(self, np.arange(self.dim))

    def _dense_block(self) -> np.ndarray | None:
        """The matrix itself when the state is one block over every index."""
        if len(self.groups) == 1 and self.groups[0][0].shape == (1, self.dim):
            return self.groups[0][1][0]
        return None

    @classmethod
    def from_diagonal(cls, populations) -> "DensityMatrix":
        pops = np.array(populations, dtype=float)
        if pops.ndim != 1:
            raise ShapeError("populations must be a vector")
        return cls(_Parts(pops))

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        """|psi><psi| as one block over the support of the amplitudes."""
        vec = np.asarray(amplitudes, dtype=complex).ravel()
        support = np.flatnonzero(vec)
        amp = vec[support]
        block = np.outer(amp, amp.conj())
        return cls(_Parts(np.zeros(vec.size), [(support[None], block[None])]))


# ---------------------------------------------------------------------------
# structured (pair-rotation) unitaries
# ---------------------------------------------------------------------------

class StructuredUnitary:
    """Sparse unitary: independent 2-dimensional rotations plus identity.

    Built from a sequence of (index_a, index_b, angle) rotations, or by
    from_pairs from index and angle arrays.  All indices are pairwise
    distinct, so the rotations commute and the matrix is exactly unitary.
    The 2x2 block on (index_a, index_b) is ((cos, sin), (-sin, cos)).
    rotations lists the triples, derived on first access.
    """

    def __init__(self, rotations, dim: int):
        rots = tuple((int(a), int(b), float(t)) for a, b, t in rotations)
        pairs = np.array([(a, b) for a, b, _ in rots], dtype=np.int64).reshape(-1, 2)
        self._set(pairs.T, np.array([t for _, _, t in rots], dtype=float), dim)
        self._rotations = rots

    @classmethod
    def from_pairs(cls, index_a, index_b, angles, dim: int) -> "StructuredUnitary":
        """Rotation k acts on (index_a[k], index_b[k]) by angles[k] (or one shared angle)."""
        a, b = np.asarray(index_a, dtype=np.int64), np.asarray(index_b, dtype=np.int64)
        angles = np.array(angles, dtype=float)
        if a.ndim != 1 or b.shape != a.shape or angles.shape not in ((), a.shape):
            raise ShapeError(
                f"index arrays {a.shape} and {b.shape} and angles {angles.shape} do not match"
            )
        unitary = cls.__new__(cls)
        unitary._set(np.stack([a, b]), np.broadcast_to(angles, a.shape), dim)
        unitary._rotations = None
        return unitary

    def _set(self, pairs: np.ndarray, angles: np.ndarray, dim: int):
        outside = ((pairs < 0) | (pairs >= dim)).any(axis=0)
        if outside.any():
            a, b = pairs[:, outside][:, 0]
            raise ValidityError(f"rotation indices ({a}, {b}) outside dimension {dim}")
        if np.unique(pairs).size != pairs.size:
            raise ValidityError("rotation pairs must be disjoint")
        # math.cos and math.sin once per distinct angle
        distinct, where = np.unique(angles, return_inverse=True)
        cos = np.array([math.cos(t) for t in distinct])[where]
        sin = np.array([math.sin(t) for t in distinct])[where]
        for value in (pairs, angles, cos, sin):
            value.setflags(write=False)
        self.dim = int(dim)
        self._pairs, self._angles, self._cos, self._sin = pairs, angles, cos, sin

    @property
    def rotations(self) -> tuple[tuple[int, int, float], ...]:
        if self._rotations is None:
            a, b = self._pairs
            self._rotations = tuple(zip(a.tolist(), b.tolist(), self._angles.tolist()))
        return self._rotations

    def materialize(self) -> np.ndarray:
        """Dense matrix form (for testing and small systems)."""
        _check_dense_size(self.dim)
        mat = np.eye(self.dim, dtype=complex)
        a, b = self._pairs
        mat[a, a] = self._cos
        mat[a, b] = self._sin
        mat[b, a] = -self._sin
        mat[b, b] = self._cos
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
    """Reduced state of one subsystem (1-based index), tracing out the rest.

    The diagonal sums the full diagonal in index order, as the dense
    einsum does, so a state and its dense form give the same bits; an
    off-diagonal entry sums the block entries whose two indices differ
    only in the kept digit.  A single dense block is traced as one tensor.
    """
    if rho.dim != spec.dim:
        raise ShapeError(f"state dimension {rho.dim} does not match spec dimension {spec.dim}")
    if not 1 <= keep <= spec.n:
        raise DomainError(f"subsystem index {keep} outside [1, {spec.n}]")
    d = spec.d
    left = d ** (keep - 1)
    right = d ** (spec.n - keep)
    dense = rho._dense_block()
    if dense is not None:
        tensor = dense.reshape(left, d, right, left, d, right)
        return DensityMatrix(_single_block(np.einsum("iajibj->ab", tensor)))
    out = np.zeros((d, d), dtype=complex)
    by_digit = rho.diagonal.reshape(left, d, right).transpose(1, 0, 2).reshape(d, -1)
    np.fill_diagonal(out, np.cumsum(by_digit, axis=1)[:, -1])
    for index, values in rho.groups:
        digit = index // right % d
        rest = index - digit * right
        link = (rest[:, :, None] == rest[:, None, :]) & (digit[:, :, None] != digit[:, None, :])
        rows, cols = np.broadcast_arrays(digit[:, :, None], digit[:, None, :])
        np.add.at(out, (rows[link], cols[link]), values[link])
    return DensityMatrix(_single_block(out))


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
        values.append(_stack_eigenvalues(arr[index[:, :, None], index[:, None, :]]).ravel())
    return np.concatenate(values)


def _eigvalsh(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of Hermitian blocks, by the real solver if all are real."""
    try:
        return np.linalg.eigvalsh(stack if stack.imag.any() else stack.real)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def _stack_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of each block of an (m, k, k) stack, as (m, k).

    Real blocks take the real solver, the others one complex solve.
    """
    complex_ = stack.imag.any(axis=(1, 2))
    out = np.empty(stack.shape[:2])
    out[~complex_] = _eigvalsh(stack[~complex_])
    out[complex_] = _eigvalsh(stack[complex_])
    return out


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

    The populations outside blocks are eigenvalues as they are; each block
    group is solved in one stacked call, and a single dense block one
    connected component of its nonzero pattern at a time.  Solved on the
    first call and cached on the state, so entropy, ergotropy and the
    passive state of one state share one solve.
    """
    if rho._spectrum is None:
        dense = rho._dense_block()
        if dense is not None:
            vals = _block_eigenvalues(dense)
        else:
            free = np.ones(rho.dim, dtype=bool)
            blocks = []
            for index, values in rho.groups:
                free[index] = False
                blocks.append(_stack_eigenvalues(values).ravel())
            vals = np.concatenate([rho.populations[free], *blocks])
        vals = np.sort(vals)[::-1]
        if vals[-1] < -PSD_TOL:
            raise ValidityError(f"state has eigenvalue {vals[-1]:.3e} below -{PSD_TOL}")
        vals.setflags(write=False)
        rho._spectrum = vals
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


def _rotate_parts(rho: DensityMatrix, unitary: StructuredUnitary) -> _Parts:
    """Parts of U rho U^dagger for pair rotations, without a dense matrix.

    The new blocks are the connected components of the old blocks together
    with the rotation pairs.  Each is assembled from its old blocks and
    populations and rotated with _rotate's expressions, rows then columns,
    so its entries are bit-identical to the dense update; blocks and
    populations no rotation touches are kept as they are.
    """
    dim = rho.dim
    a, b = unitary._pairs
    # graph node of every index: its block's number, or nblocks + index if free
    nblocks = sum(index.shape[0] for index, _ in rho.groups)
    node = nblocks + np.arange(dim)
    first = 0
    for index, _ in rho.groups:
        node[index] = first + np.arange(index.shape[0])[:, None]
        first += index.shape[0]
    # min-label propagation along the pairs, with pointer jumping
    label = np.arange(nblocks + dim)
    na, nb = node[a], node[b]
    while True:
        low = np.minimum(label[na], label[nb])
        hooked = label.copy()
        np.minimum.at(hooked, na, low)
        np.minimum.at(hooked, nb, low)
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            break
        label = hooked
    comp = label[node]
    joined = np.zeros(label.size, dtype=bool)
    joined[label[na]] = True
    moved = joined[comp]  # index lies in a new block
    members = np.flatnonzero(moved)
    members = members[np.argsort(comp[members], kind="stable")]  # by component, ascending
    starts = np.flatnonzero(np.diff(comp[members], prepend=-1))
    sizes = np.diff(starts, append=members.size)
    local = np.empty(dim, dtype=np.int64)
    local[members] = np.arange(members.size) - np.repeat(starts, sizes)
    size_of = np.zeros(label.size, dtype=np.int64)
    size_of[comp[members[starts]]] = sizes
    slot = np.empty(label.size, dtype=np.int64)

    pops = rho.populations.copy()
    free = moved & (node >= nblocks)
    groups = []
    for index, values in rho.groups:
        stays = ~moved[index[:, 0]]
        if stays.all():
            groups.append((index, values))
        elif stays.any():
            groups.append((index[stays], values[stays]))
    c, s = unitary._cos, unitary._sin
    for k in np.unique(sizes):
        index = members[starts[sizes == k][:, None] + np.arange(k)]
        slot[comp[index[:, 0]]] = np.arange(index.shape[0])
        block = np.zeros((index.shape[0], k, k), dtype=complex)
        row, col = np.nonzero(free[index])
        block[row, col, col] = pops[index[row, col]]
        for old, values in rho.groups:
            here = moved[old[:, 0]] & (size_of[comp[old[:, 0]]] == k)
            pos = local[old[here]]
            block[slot[comp[old[here, 0]]][:, None, None], pos[:, :, None], pos[:, None, :]] = \
                values[here]
        pick = size_of[comp[a]] == k
        rows, la, lb = slot[comp[a[pick]]], local[a[pick]], local[b[pick]]
        ca, sa = c[pick, None], s[pick, None]
        row_a, row_b = block[rows, la], block[rows, lb]
        block[rows, la] = ca * row_a + sa * row_b
        block[rows, lb] = -sa * row_a + ca * row_b
        col_a, col_b = block[rows, :, la], block[rows, :, lb]
        block[rows, :, la] = ca * col_a + sa * col_b
        block[rows, :, lb] = -sa * col_a + ca * col_b
        groups.append((index, block))
    pops[members] = 0.0
    return _Parts(pops, groups)


def apply_unitary(rho: DensityMatrix, unitary) -> DensityMatrix:
    """Conjugate a state by a unitary: U rho U^dagger.

    Accepts either a dense matrix (checked for unitarity; the state is
    built densely and the result is one dense block) or a
    StructuredUnitary, whose pair rotations update the state's blocks
    (or its one dense block) without a dense matrix.
    """
    if isinstance(unitary, StructuredUnitary):
        if unitary.dim != rho.dim:
            raise ShapeError(
                f"unitary dimension {unitary.dim} does not match state dimension {rho.dim}"
            )
        dense = rho._dense_block()
        if dense is not None:
            return DensityMatrix(_single_block(_rotate(dense, unitary)))
        return DensityMatrix(_rotate_parts(rho, unitary))

    mat = np.asarray(unitary, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"unitary must be square, got shape {mat.shape}")
    if mat.shape[0] != rho.dim:
        raise ShapeError(
            f"unitary dimension {mat.shape[0]} does not match state dimension {rho.dim}"
        )
    _check_dense_size(rho.dim)
    defect = float(np.abs(mat @ mat.conj().T - np.eye(rho.dim)).max())
    if defect > UNITARY_TOL:
        raise ValidityError(f"matrix is not unitary (defect {defect:.3e})")
    return DensityMatrix(_single_block(mat @ rho.entries @ mat.conj().T))
