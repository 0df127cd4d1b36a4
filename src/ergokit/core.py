"""Multi-qudit Hilbert-space algebra.

Hamming weights, Hamiltonian construction, partial trace, spectrum,
entropy and unitary application for systems of n identical d-level
subsystems with a non-interacting total Hamiltonian.

A state is stored as populations plus coherence blocks: the diagonal of
every basis index outside a block, and dense Hermitian blocks on
disjoint index sets.  The diagonal, entangled and pair-rotated states
hold O(dim) numbers this way and the Dicke mixture one block per
excitation shell, a single number broadcast over the block, so building,
rotating, tracing and solving the package's states never touches a
dim x dim array.  A caller's dense array
is split into the connected components of its nonzero entries, one block
each, and takes the same paths as any other state.  The spectrum is solved
block by block and cached on the state, so each state is solved once.

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
import operator
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

# largest array built on demand, 1 GiB: a dense complex dim x dim matrix
# (entries, partial transpose, dense unitaries) up to dim 8192, and the
# state-sized vectors of one operation, at 64 bytes an index, up to dim 2^24
DENSE_BYTES_MAX = 1 << 30

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARY_TOL = 1e-10

# square tiles of the Hermiticity check: 128 x 128 complex entries (256 kB),
# so a tile and its transposed partner stay in cache
_HERMITICITY_TILE = 128
# entries per temporary of the updates done a slab at a time: pair rotations
# and the partial transpose's component blocks (512 kB)
_SLAB = 1 << 15


# ---------------------------------------------------------------------------
# system specification and Hamming weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemSpec:
    """Immutable description of the ensemble: n subsystems of dimension d.

    local_energies is the common single-subsystem ladder (ground energy
    zero, non-decreasing); beta is the reference inverse temperature in
    units of 1/energy.  Arrays over the dim basis states are sized
    against DENSE_BYTES_MAX where they are built, not here.
    """

    n: int
    d: int
    local_energies: tuple[float, ...]
    beta: float

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
        top = self.n * energies[-1]
        if not top * top < math.inf:
            raise DomainError(f"energy scale n * E_max = {top!r} overflows when squared")
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise DomainError(f"inverse temperature must be finite and >= 0, got {self.beta}")

    @property
    def dim(self) -> int:
        return self.d ** self.n

    @property
    def energy_gap(self) -> float:
        """Energy of the first excited local level."""
        return self.local_energies[1]

    @classmethod
    def qubits(cls, n: int, beta: float, energy: float = 1.0) -> "SystemSpec":
        """Spec for n two-level subsystems with ladder (0, energy)."""
        return cls(n=n, d=2, local_energies=(0.0, float(energy)), beta=beta)


@lru_cache(maxsize=1)
def hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every linear index of an n-qubit register.

    The cache keeps the last n only, so a run over several sizes holds one
    state-sized vector.
    """
    _check_vector_size(2 ** n)
    w = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        w = np.concatenate([w, w + 1])
    w.setflags(write=False)
    return w


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

def _check_bytes(size: int, what: str):
    """Raise CapacityError before building arrays of size bytes over DENSE_BYTES_MAX."""
    if size > DENSE_BYTES_MAX:
        raise CapacityError(f"{what} needs {size} bytes, over the limit of {DENSE_BYTES_MAX}")


def _check_dense_size(dim: int):
    """Raise CapacityError before a dense complex dim x dim array over DENSE_BYTES_MAX."""
    _check_bytes(16 * dim * dim, f"a dense {dim} x {dim} matrix")


def _check_vector_size(dim: int):
    """Raise CapacityError before state-sized vectors, 64 bytes an index, over DENSE_BYTES_MAX."""
    _check_bytes(64 * dim, f"a state of dimension {dim}")


def _subsystem_index(index, n: int) -> int:
    """index as a 1-based subsystem index of n; DomainError for a bool or a non-integer."""
    try:
        site = operator.index(index)  # int or a NumPy integer, not a float or a string
    except TypeError:
        site = None
    if site is None or isinstance(index, bool):
        raise DomainError(f"subsystem index {index!r} is not an integer")
    if not 1 <= site <= n:
        raise DomainError(f"subsystem index {site} outside [1, {n}]")
    return site


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


def _dense_labels(arr: np.ndarray):
    """Component label of every index of a dense matrix, or None to keep it one block.

    A nonzero entry links its two indices whatever its mirror holds.  The
    index with the most links and the indices it links are one component,
    so only its links and those of the other indices are labelled.  None
    when a row has no zero (the first row is looked at first), or when the
    labelling, at 48 bytes a link, would exceed DENSE_BYTES_MAX.
    """
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
    return _component_labels(dim, np.flatnonzero(rows)[a], b)


def _dense_parts(arr: np.ndarray) -> _Parts:
    """Parts of a copy of a caller's dense matrix: one block per connected component.

    An entry without a Hermitian partner links its indices too, so it still
    meets the blocks' Hermiticity test.  Indices no entry links become
    populations, after the same test on their diagonal.
    """
    dim = arr.shape[0]
    index = np.arange(dim)[None]
    label = _dense_labels(arr)
    if label is None:
        return _Parts(np.zeros(dim), [(index, arr.copy()[None])])
    member = np.bincount(label, minlength=dim)[label] > 1
    diag = arr.diagonal()
    defect = float(np.abs(diag - diag.conj()).max(initial=0.0, where=~member))
    if not defect <= HERMITICITY_TOL:
        raise ValidityError(f"matrix is not finite and Hermitian (defect {defect:.3e})")
    stacks = _component_blocks(label, member, diag, [(index, arr[None])])[0]
    return _Parts(np.where(member, 0.0, diag.real), stacks.values())


class DensityMatrix:
    """Hermitian, unit-trace operator on the global space, stored in parts.

    populations is the diagonal of every index outside a block (zero at
    block indices).  groups is a tuple of (index, values) pairs: index has
    shape (m, k) with ascending rows, values has shape (m, k, k), and all
    blocks are disjoint.  values may be a read-only broadcast view (the
    Dicke mixture stores one number per shell block), so no reader writes
    into it, and none copies a group whole, except to build a new state or
    to split a stack of real and complex blocks for the spectrum.  A dense
    array given by a caller is copied into one block per connected
    component of its nonzero entries, and its unlinked indices into
    populations.  entries is the dense matrix, assembled from the parts on
    each access (read-only); it raises CapacityError over DENSE_BYTES_MAX.

    Finite entries, Hermiticity and trace are verified at construction;
    positivity is verified wherever eigenvalues are computed (eigenvalues
    below -1e-10 raise; smaller negative ones are kept as they are, and the
    entropy skips them).  States compare and hash by identity.
    """

    def __init__(self, entries):
        if isinstance(entries, _Parts):
            parts = entries
        else:
            arr = np.asarray(entries, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ShapeError(f"density matrix must be square, got shape {arr.shape}")
            parts = _dense_parts(arr)
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
        _check_vector_size(dim)  # one mark an index, like a state vector
        used = np.zeros(dim, dtype=bool)
        used[pairs] = True
        if np.count_nonzero(used) != pairs.size:
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
    _check_vector_size(spec.dim)
    diag = np.zeros(1)
    ladder = np.asarray(spec.local_energies)
    for _ in range(spec.n):
        diag = (diag[:, None] + ladder[None, :]).ravel()
    return diag


def partial_trace_to(rho: DensityMatrix, spec: SystemSpec, keep: int) -> DensityMatrix:
    """Reduced state of one subsystem (1-based index), tracing out the rest."""
    keep = _subsystem_index(keep, spec.n)
    return DensityMatrix(_single_block(_marginals(rho, spec, [keep])[0]))


def _marginals(rho: DensityMatrix, spec: SystemSpec, sites) -> np.ndarray:
    """Reduced states of the given subsystems (1-based), as a (len(sites), d, d) stack.

    Each diagonal sums the full diagonal pairwise.  An off-diagonal entry
    sums, in row-major order, the block entries whose two indices differ
    only in the kept digit; each block group is walked once for as many
    sites as fit in _SLAB entries.
    """
    if rho.dim != spec.dim:
        raise ShapeError(f"state dimension {rho.dim} does not match spec dimension {spec.dim}")
    d = spec.d
    rights = d ** (spec.n - np.asarray(sites))
    out = np.zeros((rights.size, d, d), dtype=complex)
    diag = rho.diagonal
    for marginal, right in zip(out, rights.tolist()):
        by_digit = diag.reshape(-1, d, right).transpose(1, 0, 2).reshape(d, -1)
        np.fill_diagonal(marginal, by_digit.sum(axis=1))
    flat = out.reshape(-1)
    for index, values in rho.groups:
        step = max(1, _SLAB // max(1, values.size))
        for lo in range(0, rights.size, step):
            right = rights[lo:lo + step, None, None]
            digit = index // right % d
            rest = index - digit * right
            rows, cols = digit[..., :, None], digit[..., None, :]
            link = (rest[..., :, None] == rest[..., None, :]) & (rows != cols)
            site = np.arange(lo, lo + right.shape[0])[:, None, None, None]
            np.add.at(flat, ((site * d + rows) * d + cols)[link],
                      np.broadcast_to(values, link.shape)[link])
    return out


def _eigvalsh(stack: np.ndarray, complex_: bool) -> np.ndarray:
    """Eigenvalues of Hermitian blocks, by the real solver unless complex_."""
    try:
        return np.linalg.eigvalsh(stack if complex_ else stack.real)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc


def _stack_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of each block of an (m, k, k) stack, as (m, k).

    Real blocks take the real solver, the others one complex solve; a
    stack of one kind is solved as it is, without a copy.  The imaginary
    parts are read once.
    """
    complex_ = stack.imag.any(axis=(1, 2))
    if complex_.all() or not complex_.any():
        return _eigvalsh(stack, bool(complex_.any()))
    out = np.empty(stack.shape[:2])
    out[~complex_] = _eigvalsh(stack[~complex_], False)
    out[complex_] = _eigvalsh(stack[complex_], True)
    return out


def _component_labels(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per node of range(size), the smallest node of its component under edges (a[k], b[k]).

    Min-label propagation along the edges, with pointer jumping.
    """
    label = np.arange(size)
    while True:
        low = np.minimum(label[a], label[b])
        hooked = label.copy()
        np.minimum.at(hooked, a, low)
        np.minimum.at(hooked, b, low)
        hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return label
        label = hooked


def _component_blocks(label: np.ndarray, member: np.ndarray, diag: np.ndarray, groups,
                      swap=None):
    """Blocks on the components of label, over the whole components where member is set.

    Returns a dict from size k to an (index, values) stack: index is (m, k),
    one component per row, members ascending and rows ordered by label;
    values holds diag on each diagonal, then every entry of the old blocks
    groups that lands inside a component.  An entry (r, c) lands at (r, c),
    or with swap (the partial transpose) at (r - swap[r] + swap[c],
    c - swap[c] + swap[r]).  Old blocks go in a slab at a time, so each
    temporary holds at most _SLAB entries, or one row of every block.  Also
    returns, per index, the size of its component (0 outside member), its
    row in that stack and its position in the row.
    """
    members = np.flatnonzero(member)
    size, row, local, head = np.zeros((4, label.size), dtype=np.int64)
    if not members.size:
        return {}, size, row, local
    members = members[np.argsort(label[members], kind="stable")]
    ordered = label[members]
    # component bounds without np.diff's prepend and append (about 15 us on a few entries)
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    size[members] = np.repeat(sizes, sizes)
    local[members] = np.arange(members.size) - np.repeat(starts, sizes)
    # stacks are views of one buffer; index i's row starts at head[i], strays go to the end
    flat = np.zeros(int((sizes ** 2).sum()) + 1, dtype=complex)
    stacks, offset = {}, 0
    for k in np.unique(sizes).tolist():
        index = members[starts[sizes == k][:, None] + np.arange(k)]
        row[index] = np.arange(index.shape[0])[:, None]
        head[index] = offset + k * np.arange(index.size).reshape(index.shape)
        stacks[k] = index, flat[offset:offset + k * index.size].reshape(-1, k, k)
        offset += k * index.size
    flat[head[members] + local[members]] = diag[members]
    owner = np.where(size > 0, label, -1)
    for old, entries in groups:
        step = max(1, _SLAB // max(1, old.size))
        for lo in range(0, old.shape[1], step):
            i, j = old[:, lo:lo + step, None], old[:, None, :]
            if swap is not None:
                move = swap[j] - swap[i]
                i, j = i + move, j - move
            flat[np.where(owner[i] == label[j], head[i] + local[j], -1)] = entries[:, lo:lo + step]
    return stacks, size, row, local


def _parts_eigenvalues(populations: np.ndarray, groups) -> np.ndarray:
    """The populations outside every block, then each block group's eigenvalues, unsorted."""
    free = np.ones(populations.size, dtype=bool)
    found = []
    for index, values in groups:
        free[index] = False
        found.append(_stack_eigenvalues(values).ravel())
    return np.concatenate([populations[free], *found])


def state_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of a density matrix, sorted descending, as a read-only array.

    The populations outside blocks are eigenvalues as they are; each block
    group is solved in one stacked call.  Solved on the first call and
    cached on the state, so entropy, ergotropy and the passive state of one
    state share one solve.
    """
    if rho._spectrum is None:
        vals = np.sort(_parts_eigenvalues(rho.populations, rho.groups))[::-1]
        if vals[-1] < -PSD_TOL:
            raise ValidityError(f"state has eigenvalue {vals[-1]:.3e} below -{PSD_TOL}")
        vals.setflags(write=False)
        rho._spectrum = vals
    return rho._spectrum


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * ln lam) in nats, with 0 ln 0 = 0."""
    return _spectrum_entropy(state_eigenvalues(rho))


def _spectrum_entropy(lam: np.ndarray) -> float:
    """-sum(lam * ln lam) over the positive eigenvalues, in the order given."""
    nz = lam[lam > 0.0]
    return float(-(nz * np.log(nz)).sum() + 0.0)


def _rotate_parts(rho: DensityMatrix, unitary: StructuredUnitary) -> _Parts:
    """Parts of U rho U^dagger for pair rotations, without a dense matrix.

    The new blocks are the connected components of the old blocks together
    with the rotation pairs.  Each is assembled from its old blocks and
    populations by _component_blocks and rotated with the expressions of a
    per-rotation update, rows then columns, so its entries are
    bit-identical to that update; blocks and populations no rotation
    touches are kept as they are.  Pairs are rotated a slab at a time, so
    each temporary holds at most _SLAB entries.
    """
    a, b = unitary._pairs
    # edges: the rotation pairs, and every old block's indices to its first
    ends_a, ends_b = [a], [b]
    for index, _ in rho.groups:
        ends_a.append(np.broadcast_to(index[:, :1], index.shape).ravel())
        ends_b.append(index.ravel())
    label = _component_labels(rho.dim, np.concatenate(ends_a), np.concatenate(ends_b))
    joined = np.zeros(rho.dim, dtype=bool)
    joined[label[a]] = True
    moved = joined[label]  # index lies in a new block
    groups, merged = [], []  # old blocks kept as they are, and those merged into new ones
    for index, values in rho.groups:
        stays = ~moved[index[:, 0]]
        for out, rows in ((groups, stays), (merged, ~stays)):
            if rows.all():
                out.append((index, values))
            elif rows.any():
                out.append((index[rows], values[rows]))
    stacks, size, row, local = _component_blocks(label, moved, rho.populations, merged)
    c, s = unitary._cos, unitary._sin
    for k, (index, block) in stacks.items():
        pick = size[a] == k
        rows, la, lb = row[a[pick]], local[a[pick]], local[b[pick]]
        ca, sa = c[pick, None], s[pick, None]
        # rows of every pair, then columns a slab of block rows at a time, so
        # the columns are read within rows that stay in cache
        span = max(1, _SLAB // k)
        for view in [block] + [block[:, lo:lo + span].swapaxes(1, 2) for lo in range(0, k, span)]:
            step = max(1, _SLAB // view.shape[2])
            for p in (slice(lo, lo + step) for lo in range(0, rows.size, step)):
                at_a, at_b = (rows[p], la[p]), (rows[p], lb[p])
                row_a, row_b = view[at_a], view[at_b]
                view[at_a] = ca[p] * row_a + sa[p] * row_b
                view[at_b] = -sa[p] * row_a + ca[p] * row_b
        groups.append((index, block))
    return _Parts(np.where(moved, 0.0, rho.populations), groups)


def apply_unitary(rho: DensityMatrix, unitary) -> DensityMatrix:
    """Conjugate a state by a unitary: U rho U^dagger.

    Accepts either a dense matrix (checked for unitarity; the state is
    built densely and the result is one dense block) or a
    StructuredUnitary, whose pair rotations update the state's parts
    without a dense matrix.
    """
    if isinstance(unitary, StructuredUnitary):
        if unitary.dim != rho.dim:
            raise ShapeError(
                f"unitary dimension {unitary.dim} does not match state dimension {rho.dim}"
            )
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
