"""Multi-qudit Hilbert-space algebra.

Hamming weights, Hamiltonian construction, partial trace, spectrum,
entropy and unitary application for systems of n identical d-level
subsystems with a non-interacting total Hamiltonian.

A state is stored in one of three forms.  Populations plus coherence
blocks hold the diagonal of every basis index outside a block and dense
Hermitian blocks on disjoint index sets: the product and shell-inverted
states hold O(dim) numbers this way and the Dicke mixture one block per
excitation shell, a single number broadcast over the block.  One dense
matrix over every index holds a caller's array with anything off its
diagonal, a dense unitary's product and a marginal; its marginals are a
reshaped partial trace, its spectrum one eigensolve.  The separable,
entangled and fixed-entropy states, the inversion chain and the
pair-rotated product are records of a few class populations, blocks or
2 x 2 pair blocks (_Record), read against energy levels by class
(_Levels), with marginals summed by class.  The spectrum is cached on the
state, so each state is solved once.

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
import numbers
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
    units of 1/energy; n and d are integers, not bools, and beta is real.
    Arrays over the dim basis states are sized where they are built.
    """

    n: int
    d: int
    local_energies: tuple[float, ...]
    beta: float
    # the Gibbs weights at beta, set by passivity.thermal_params on first use;
    # not a field, so equality, hash, repr and dataclasses.replace ignore it
    _reference = None

    def __post_init__(self):
        if type(self.n) is not int or type(self.d) is not int or type(self.beta) is not float:
            object.__setattr__(self, "n", _integer(self.n, "subsystem count"))
            object.__setattr__(self, "d", _integer(self.d, "local dimension"))
            object.__setattr__(self, "beta", _real(self.beta, "inverse temperature"))
        if self.n < 1:
            raise DomainError(f"subsystem count must be positive, got {self.n}")
        if self.d < 2:
            raise DomainError(f"local dimension must be at least 2, got {self.d}")
        energies = tuple(_real(e, "local energy") for e in _items(self.local_energies,
                                                                  "local energies"))
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
        return cls(n=n, d=2, local_energies=(0.0, energy), beta=beta)


@lru_cache(maxsize=1)
def _hamming_weights(n: int) -> np.ndarray:
    """Hamming weight of every linear index of an n-qubit register, read-only.

    The cache keeps the last n only, so a run over several sizes holds one
    state-sized vector.
    """
    _check_vector_size(2 ** n)
    w = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        w = np.concatenate([w, w + 1])
    w.setflags(write=False)
    return w


def _binomial_weight(n: int, k: int, p: float, q: float) -> float:
    """C(n, k) p^k q^(n-k): shell k's weight in n qubits, each excited with p and not with q."""
    return math.comb(n, k) * p ** k * q ** (n - k)


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

def _power_of_two(size: int) -> str:
    """size as 2^k, k rounded to a tenth unless exact: d^n in decimal can pass
    Python's limit on the digits of an int printed as a string."""
    if size & (size - 1) == 0:  # a power of two, or 0
        return f"2^{size.bit_length() - 1}" if size else "0"
    return f"~2^{math.log2(size):.1f}"


def _capacity_error(size: int, what: str) -> CapacityError:
    """The CapacityError for what, which needs size bytes."""
    return CapacityError(f"{what} needs {_power_of_two(size)} bytes, "
                         f"over the limit of {_power_of_two(DENSE_BYTES_MAX)}")


def _check_bytes(size: int, what: str):
    """Raise CapacityError before building arrays of size bytes over DENSE_BYTES_MAX."""
    if size > DENSE_BYTES_MAX:
        raise _capacity_error(size, what)


# the two checks below run on every state and unitary; each names its array
# only when it raises

def _check_dense_size(dim: int):
    """Raise CapacityError before a dense complex dim x dim array over DENSE_BYTES_MAX."""
    size = 16 * dim * dim
    if size > DENSE_BYTES_MAX:
        side = _power_of_two(dim)
        raise _capacity_error(size, f"a dense {side} x {side} matrix")


def _check_vector_size(dim: int):
    """Raise CapacityError before state-sized vectors, 64 bytes an index, over DENSE_BYTES_MAX."""
    size = 64 * dim
    if size > DENSE_BYTES_MAX:
        raise _capacity_error(size, f"a state of dimension {_power_of_two(dim)}")


def _integer(value, what: str) -> int:
    """value as an int; DomainError for a bool or a non-integer."""
    try:
        number = operator.index(value)  # int or a NumPy integer, not a float or a string
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise DomainError(f"{what} {value!r} is not an integer")
    return number


def _real(value, what: str) -> float:
    """value as a float; DomainError for a bool or anything not a real number."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{what} {value!r} is not a real number")
    return float(value)


def _array(value, dtype) -> np.ndarray:
    """value as an array of dtype, itself if it is one; ValidityError for entries not numbers
    or past the dtype's range."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:  # NumPy's errors for non-numbers
        raise ValidityError(f"entries must be numbers: {exc}") from None
    except OverflowError as exc:  # an int too large for an int64 array
        raise ValidityError(f"entries out of range for {np.dtype(dtype)}: {exc}") from None


def _items(value, what: str) -> tuple:
    """value's items as a tuple; DomainError if it cannot be iterated."""
    if type(value) is tuple:
        return value
    try:
        return tuple(value)
    except TypeError:  # not iterable, as None, an int or a 0-d array
        raise DomainError(f"{what} {value!r} is not a sequence") from None


def _subsystem_index(index, n: int) -> int:
    """index as a 1-based subsystem index of n; DomainError for a bool or a non-integer."""
    site = _integer(index, "subsystem index")
    if not 1 <= site <= n:
        raise DomainError(f"subsystem index {site} outside [1, {n}]")
    return site


def _hermiticity_defect(arr: np.ndarray) -> float:
    """Largest |arr[..., i, j] - conj(arr[..., j, i])| of a matrix or a stack of them.

    NaN or inf entries give NaN.  Walks the square tiles with i <= j, so
    each entry is read once and no column is read with a stride; blocks
    within one tile are compared whole in one expression.
    """
    worst = 0.0
    dim, tile = arr.shape[-1], _HERMITICITY_TILE
    with np.errstate(invalid="ignore"):
        if dim <= tile:
            return float(np.abs(arr - arr.conj().swapaxes(-1, -2)).max(initial=0.0))
        for lo in range(0, dim, tile):
            for col in range(lo, dim, tile):
                upper = arr[..., lo:lo + tile, col:col + tile]
                lower = arr[..., col:col + tile, lo:lo + tile]
                worst = np.maximum(worst, np.abs(upper - lower.conj().swapaxes(-1, -2)).max())
    return float(worst)


def _check_hermitian(values: np.ndarray):
    """Raise ValidityError unless a matrix or stack of them is finite and Hermitian."""
    defect = _hermiticity_defect(values)
    if not defect <= HERMITICITY_TOL:
        raise ValidityError(f"matrix is not finite and Hermitian (defect {defect:.3e})")


class _Parts:
    """Populations and block groups built inside the package.

    DensityMatrix adopts them as they are, where it copies a caller's array.
    """

    __slots__ = ("populations", "groups")

    def __init__(self, populations: np.ndarray, groups=()):
        self.populations = populations
        self.groups = tuple(groups)


class _Record:
    """A state invariant under permuting the subsystems, stored by class.

    A class is the set of basis states with c[a] subsystems at each level
    a: the shell (n - k, k) of k excited qubits, or for qudits one of the
    single states |a...a>.  The short Python list counts holds distinct
    classes c, and class i population pops[i], spread evenly over its
    sizes[i] members; blocks lists (counts, values) pairs, each a Hermitian
    k x k block on the states |a...a> of k classes not in counts.  pairs,
    for qubits, is None or the (m, 2, 2) stack of the pair class, one
    Hermitian block for each shell k < n/2: pairs[k] sits on every pair
    (x, ~x) with |x| = k, in that order, and has copies[k] = C(n, k)
    copies; the shells k and n - k are then not in counts.
    """

    __slots__ = ("spec", "counts", "pops", "sizes", "blocks", "pairs", "copies")

    def __init__(self, spec: SystemSpec, counts, pops, blocks=(), pairs=None):
        self.spec, self.counts, self.pops, self.blocks = spec, counts, pops, blocks
        self.sizes = [math.factorial(spec.n) // math.prod(map(math.factorial, c)) for c in counts]
        self.pairs = pairs
        self.copies = [] if pairs is None else [math.comb(spec.n, k) for k in range(len(pairs))]

    def classes(self) -> list:
        """(weight, counts) of every class: its population, each block entry on the
        diagonal at its state, and each pair block's diagonal times its copies at
        shells k and n - k."""
        weights = list(zip(self.pops, self.counts))
        for counts, values in self.blocks:
            weights += zip(values.diagonal().real.tolist(), counts)
        if self.pairs is not None:
            n, diagonals = self.spec.n, self.pairs.diagonal(axis1=1, axis2=2).real.tolist()
            for k, ((low, high), copies) in enumerate(zip(diagonals, self.copies)):
                weights += [(copies * low, (n - k, k)), (copies * high, (k, n - k))]
        return weights

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, descending: class, block and pair values by multiplicity, then zeros."""
        found = [(pop / size, size) for pop, size in zip(self.pops, self.sizes)]
        for _, block in self.blocks:
            found += [(value, 1) for value in _stack_eigenvalues(block[None])[0].tolist()]
        if self.pairs is not None:
            for values, copies in zip(_stack_eigenvalues(self.pairs).tolist(), self.copies):
                found += [(value, copies) for value in values]
        found.append((0.0, self.spec.dim - sum(size for _, size in found)))
        found.sort(reverse=True)
        return np.repeat(np.array([v for v, _ in found]), np.array([m for _, m in found]))

    def parts(self) -> _Parts:
        """The full-basis parts: each class's population per member on its members,
        and every block on its states, a pair block on each pair in ascending order."""
        n, dim = self.spec.n, self.spec.dim
        single = (dim - 1) // (self.spec.d - 1)  # |a...a> is at linear index a * single
        pops = np.zeros(dim)
        for counts, pop, size in zip(self.counts, self.pops, self.sizes):
            at = counts.index(n) * single if size == 1 else _hamming_weights(n) == counts[1]
            pops[at] = pop / size
        groups = [(np.array([[c.index(n) for c in counts]]) * single, values[None])
                  for counts, values in self.blocks]
        if self.pairs is not None:
            weight = _hamming_weights(n)[:dim // 2]  # x < ~x: x's first digit is 0
            low = np.flatnonzero(2 * weight != n)
            weight = weight[low]
            shell = np.minimum(weight, n - weight)
            # where x is in shell n - k, the block's order (~x, x) is mirrored
            values = np.where((weight > shell)[:, None, None], self.pairs[shell, ::-1, ::-1],
                              self.pairs[shell])
            groups.append((np.stack([low, dim - 1 - low], axis=1), values))
        return _Parts(pops, groups)


class _Dense:
    """One dense matrix over every index, which DensityMatrix adopts as it is."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix


def _single_block(arr: np.ndarray) -> _Dense:
    """A dense matrix built inside the package, as one block over every index."""
    return _Dense(arr)


def _off_diagonal_nonzero(arr: np.ndarray, diag: np.ndarray) -> bool:
    """Whether an entry off a square array's diagonal is nonzero (NaN counts), without a
    dim x dim temporary.

    In a C- or Fortran-ordered array the entries between two diagonal ones
    are contiguous, so they form one strided (dim - 1, dim) view, read by
    any; count_nonzero, called once on the array and once on its diagonal,
    costs less on up to 16 x 16 entries, and reads any other layout.
    """
    dim = arr.shape[0]
    if dim > 16 and (arr.flags.c_contiguous or arr.flags.f_contiguous):
        flat = (arr if arr.flags.c_contiguous else arr.T).reshape(-1)
        return bool(flat[1:].reshape(dim - 1, dim + 1)[:, :dim].any())
    return np.count_nonzero(arr) != np.count_nonzero(diag)


def _dense_parts(arr: np.ndarray) -> "_Parts | _Dense":
    """A copy of a caller's dense matrix: its populations, or the whole matrix.

    An array with a nonzero entry off its diagonal (NaN counts) is kept
    whole (_Dense), and so is one whose first row has no zero, which is
    read first; any other array's diagonal, tested for Hermiticity, is the
    populations.  Neither test builds a dim x dim temporary.
    """
    dim, diag = arr.shape[0], arr.diagonal()
    if np.count_nonzero(arr[:1]) == dim or _off_diagonal_nonzero(arr, diag):
        return _single_block(arr.copy())
    with np.errstate(invalid="ignore"):  # inf - inf: the NaN defect fails the test below
        defect = float(np.abs(diag - diag.conj()).max(initial=0.0))
    if not defect <= HERMITICITY_TOL:
        raise ValidityError(f"matrix is not finite and Hermitian (defect {defect:.3e})")
    return _Parts(diag.real.copy())


class DensityMatrix:
    """Hermitian, unit-trace operator on the global space: parts, one matrix or classes.

    populations is the diagonal of every index outside a block (zero at
    block indices).  groups is a tuple of (index, values) pairs: index has
    shape (m, k) with ascending rows, values has shape (m, k, k), and all
    blocks are disjoint.  values may be a read-only broadcast view (the
    Dicke mixture stores one number per shell block), so no reader writes
    into it, and none copies a group whole, except to build a new state.

    A dense array given by a caller is copied into its populations when
    nothing lies off its diagonal, and otherwise kept whole as one
    read-only dim x dim matrix (_dense_parts), as are a dense unitary's
    product and a marginal.  entries is that matrix itself; its diagonal,
    spectrum and marginals are read from it, and its populations (zeros)
    and its one group over every index, a view of it, are derived on first
    access.  For parts, entries is assembled on each access (read-only);
    in every form it raises CapacityError over DENSE_BYTES_MAX.

    The permutation-invariant states that the families and protocols build
    are stored by class (a _Record) instead, and expanded into populations
    and groups on first access; their spectrum, energy and marginals are
    read from the classes.  A record's pair class is checked for
    Hermiticity like any block, and its trace is the sum of its class
    weights (_Record.classes), where each pair block counts C(n, k) times.

    Finite entries, Hermiticity, trace and populations (every one, every
    class's, or every diagonal entry of a dense matrix, at least -1e-10)
    are verified at construction; positivity of the blocks is verified
    wherever eigenvalues are computed (eigenvalues below -1e-10 raise;
    smaller negative ones are kept as they are, and the entropy skips
    them).  States compare and hash by identity.
    """

    def __init__(self, entries):
        form = type(entries)
        if form is not _Parts and form is not _Record and form is not _Dense:
            arr = _array(entries, complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ShapeError(f"density matrix must be square, got shape {arr.shape}")
            entries = _dense_parts(arr)
            form = type(entries)
        record = entries if form is _Record else None
        dense = entries.matrix if form is _Dense else None
        if dense is not None:
            _check_hermitian(dense)
            diag, blocks, self.dim = dense.diagonal().real, (), dense.shape[0]
            trace, lowest = float(diag.sum()), float(np.minimum.reduce(diag, initial=0.0))
            dense.setflags(write=False)
        elif record is None:
            pops, blocks, self.dim = entries.populations, entries.groups, entries.populations.size
            trace, lowest = float(np.add.reduce(pops)), float(np.minimum.reduce(pops, initial=0.0))
            pops.setflags(write=False)
            self.populations, self.groups = pops, blocks
        else:  # a few classes, summed in Python once their blocks are checked
            lowest = min(record.pops, default=0.0)
            blocks, self.dim = record.blocks, record.spec.dim
            if record.pairs is not None:
                blocks = [*blocks, (None, record.pairs)]
        for index, values in blocks:
            _check_hermitian(values)
            if record is None:
                trace += float(values.diagonal(axis1=-2, axis2=-1).real.sum())
                index.setflags(write=False)
            values.setflags(write=False)
        if record is not None:
            trace = math.fsum(w for w, _ in record.classes())
        if not abs(trace - 1.0) <= TRACE_TOL:  # a non-finite population fails here
            raise ValidityError(f"trace must be 1, got {trace!r}")
        if lowest < -PSD_TOL:
            raise ValidityError(f"state has population {lowest:.3e} below -{PSD_TOL}")
        self._record, self._dense, self._spectrum = record, dense, None

    def __getattr__(self, name):  # the populations and groups of a record or a matrix
        if name != "populations" and name != "groups":
            raise AttributeError(name)
        record, dense = self.__dict__.get("_record"), self.__dict__.get("_dense")
        if record is not None:
            parts = record.parts()
        elif dense is None:
            raise AttributeError(name)
        else:
            index = np.arange(self.dim)[None]
            index.setflags(write=False)
            parts = _Parts(np.zeros(self.dim), [(index, dense[None])])
        parts.populations.setflags(write=False)
        self.populations, self.groups = parts.populations, parts.groups
        return getattr(self, name)

    @property
    def entries(self) -> np.ndarray:
        _check_dense_size(self.dim)
        if self._dense is not None:
            return self._dense
        arr = np.zeros((self.dim, self.dim), dtype=complex)
        np.fill_diagonal(arr, self.populations)
        for index, values in self.groups:
            arr[index[:, :, None], index[:, None, :]] = values
        arr.setflags(write=False)
        return arr

    @property
    def diagonal(self) -> np.ndarray:
        if self._dense is not None:
            return self._dense.diagonal().real.copy()
        diag = self.populations.copy()
        for index, values in self.groups:
            diag[index] = values.diagonal(axis1=1, axis2=2).real
        return diag

    @classmethod
    def from_diagonal(cls, populations) -> "DensityMatrix":
        pops = _array(populations, float).copy()
        if pops.ndim != 1:
            raise ShapeError("populations must be a vector")
        return cls(_Parts(pops))

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        """|psi><psi| as one block over the support of the amplitudes."""
        vec = _array(amplitudes, complex).ravel()
        support = np.flatnonzero(vec)
        amp = vec[support]
        block = np.outer(amp, amp.conj())
        return cls(_Parts(np.zeros(vec.size), [(support[None], block[None])]))


# ---------------------------------------------------------------------------
# structured (pair-rotation) unitaries
# ---------------------------------------------------------------------------

class StructuredUnitary:
    """Sparse unitary: independent 2-dimensional rotations plus identity.

    Built from a sequence of (index_a, index_b, angle) rotations (other
    items raise ShapeError), or by from_pairs from index and angle arrays.
    All indices are pairwise distinct, so the rotations commute and the
    matrix is exactly unitary.
    The 2x2 block on (index_a, index_b) is ((cos, sin), (-sin, cos)).
    rotations lists the triples, derived on first access.
    """

    def __init__(self, rotations, dim: int):
        table = _array(_items(rotations, "rotations"), object)
        if table.shape != (0,) and (table.ndim != 2 or table.shape[1] != 3):
            raise ShapeError(f"rotations must be (index_a, index_b, angle) triples, "
                             f"got an array of shape {table.shape}")
        table = table.reshape(-1, 3)
        self._set(_array(table[:, :2], np.int64).T, _array(table[:, 2], float), dim)

    @classmethod
    def from_pairs(cls, index_a, index_b, angles, dim: int) -> "StructuredUnitary":
        """Rotation k acts on (index_a[k], index_b[k]) by angles[k] (or one shared angle)."""
        a, b = _array(index_a, np.int64), _array(index_b, np.int64)
        angles = _array(angles, float).copy()
        if a.ndim != 1 or b.shape != a.shape or angles.shape not in ((), a.shape):
            raise ShapeError(
                f"index arrays {a.shape} and {b.shape} and angles {angles.shape} do not match"
            )
        unitary = cls.__new__(cls)
        unitary._set(np.stack([a, b]), np.broadcast_to(angles, a.shape), dim)
        return unitary

    def _set(self, pairs: np.ndarray, angles: np.ndarray, dim: int):
        dim = _integer(dim, "dimension")
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
        if not np.isfinite(distinct).all():  # -inf sorts first, inf and nan last
            raise DomainError(f"rotation angles must be finite, got {distinct[[0, -1]]}")
        cos = np.array([math.cos(t) for t in distinct])[where]
        sin = np.array([math.sin(t) for t in distinct])[where]
        for value in (pairs, angles, cos, sin):
            value.setflags(write=False)
        self.dim = dim
        self._pairs, self._angles, self._cos, self._sin = pairs, angles, cos, sin
        self._rotations = None

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


class _Levels:
    """A diagonal Hamiltonian as a level table: classes of equal energy.

    Class i has energy energies[i] and sizes[i] basis states.  The table of
    a spec has one class per composition c of n into the d levels, energy
    sum_a c_a e_a and multinomial size, ascending (qubit shell k is class
    k); an energy vector is a table with every basis index its own class.
    """

    __slots__ = ("energies", "sizes", "spec", "dim")

    def __init__(self, energies: np.ndarray, sizes=None, spec=None):
        self.energies, self.sizes, self.spec = energies, sizes, spec
        self.dim = energies.size if spec is None else spec.dim

    @classmethod
    def of_spec(cls, spec: SystemSpec) -> "_Levels":
        """The classes of a spec: qubit shell k at index k; for qudits, level by level."""
        n = spec.n
        if spec.d == 2:
            return cls(np.arange(n + 1) * spec.energy_gap,
                       np.array([math.comb(n, k) for k in range(n + 1)]), spec)
        fact = np.cumprod(np.maximum(np.arange(n + 1.0), 1.0))  # k!, exact while under 2^53
        # level by level, each composition takes c = 0..left more subsystems
        energy, weight, left, done = np.zeros(1), np.ones(1), np.array([n]), []
        for level in spec.local_energies[1:]:
            rows = np.repeat(np.arange(left.size), left + 1)
            c = np.arange(rows.size) - np.searchsorted(rows, rows)
            energy, weight, left = energy[rows] + c * level, weight[rows] * fact[c], left[rows] - c
            done.append((energy[left == 0], weight[left == 0]))
            energy, weight, left = energy[left > 0], weight[left > 0], left[left > 0]
        energy = np.concatenate([energy] + [e for e, _ in done])
        weight = np.concatenate([weight * fact[left]] + [w for _, w in done])
        order = np.argsort(energy, kind="stable")
        return cls(energy[order], np.rint(fact[n] / weight[order]).astype(np.int64), spec)

    def ascending(self) -> np.ndarray:
        """The energy of every basis state, ascending."""
        if self.sizes is None:
            return np.sort(self.energies, kind="stable")
        return np.repeat(self.energies, self.sizes)

    def per_index(self) -> np.ndarray:
        """The energy of every basis index, in basis order."""
        if self.spec is None:
            return self.energies
        if self.spec.d == 2:
            return self.energies[_hamming_weights(self.spec.n)]
        return build_hamiltonian(self.spec)


def partial_trace_to(rho: DensityMatrix, spec: SystemSpec, keep: int) -> DensityMatrix:
    """Reduced state of one subsystem (1-based index), tracing out the rest."""
    keep = _subsystem_index(keep, spec.n)
    return DensityMatrix(_single_block(_marginals(rho, spec, [keep])[0]))


def _marginals(rho: DensityMatrix, spec: SystemSpec, sites) -> np.ndarray:
    """Reduced states of the given subsystems (1-based), as a (len(sites), d, d) stack.

    A state stored by class, at n >= 2, gives every site the same diagonal
    marginal: level a gets the class sum of weight c_a / n (math.fsum)
    over _Record.classes, and no block of a record reaches it, since each
    links states that differ at every site.  At n = 1 the one pair is the
    site itself, so the marginal is read from the expanded parts, as for
    any other state: each diagonal sums the full diagonal pairwise.  An
    off-diagonal entry sums, in row-major order, the entries whose two
    indices differ only in the kept digit.  A dense matrix, reshaped to
    (left, d, right) x (left, d, right), gives them as one view, its
    (left right, d, d) copy summed over its first axis; a block group is
    walked once for as many sites as fit in _SLAB entries.  A group over
    _SLAB entries goes one site at a time, and its blocks with no such
    pair (every Dicke shell block) are dropped before the entry masks are
    built.  Both orders add the same terms one by one, so a dense matrix
    and the same matrix as one block give the same bytes.
    """
    if rho.dim != spec.dim:
        raise ShapeError(f"state dimension {rho.dim} does not match spec dimension {spec.dim}")
    n, d = spec.n, spec.d
    rights = d ** (n - np.asarray(sites))
    out = np.zeros((rights.size, d, d), dtype=complex)
    record = rho._record
    if record is not None and record.spec.n == n >= 2:
        classes = record.classes()
        levels = [math.fsum(w * c[a] / n for w, c in classes) for a in range(d)]
        out[:, range(d), range(d)] = levels
        return out
    diag, dense = rho.diagonal, rho._dense
    for marginal, right in zip(out, rights.tolist()):
        if dense is not None:  # 0 + the sum, as the group walk's np.add.at adds to 0
            left = rho.dim // (d * right)
            pairs = np.einsum("aibajb->abij", dense.reshape(left, d, right, left, d, right))
            marginal += pairs.reshape(-1, d, d).sum(axis=0)
        by_digit = diag.reshape(-1, d, right).transpose(1, 0, 2).reshape(d, -1)
        np.fill_diagonal(marginal, by_digit.sum(axis=1))
    if dense is not None:
        return out
    flat = out.reshape(-1)
    for index, values in rho.groups:
        step = max(1, _SLAB // max(1, values.size))
        for lo in range(0, rights.size, step):
            right = rights[lo:lo + step, None, None]
            digit = index // right % d
            rest = index - digit * right
            block = values
            if values.size > _SLAB:
                # one site: keep the blocks in which two indices differ only at it
                ordered = np.sort(rest[0], axis=1)
                keep = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
                if not keep.all():
                    digit, rest, block = digit[:, keep], rest[:, keep], values[keep]
            rows, cols = digit[..., :, None], digit[..., None, :]
            link = (rest[..., :, None] == rest[..., None, :]) & (rows != cols)
            site = np.arange(lo, lo + right.shape[0])[:, None, None, None]
            np.add.at(flat, ((site * d + rows) * d + cols)[link],
                      np.broadcast_to(block, link.shape)[link])
    return out


def _eigvalsh(stack: np.ndarray, complex_: bool) -> np.ndarray:
    """Eigenvalues of Hermitian blocks by the real solver unless complex_, residues cut to 0."""
    try:
        vals = np.linalg.eigvalsh(stack if complex_ else stack.real)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    cut = np.maximum(vals[:, -1:], -vals[:, :1]) * (2.0 ** -52 * stack.shape[-1])
    vals[abs(vals) <= cut] = 0.0
    return vals


def _stack_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues of each block of an (m, k, k) stack, as (m, k), in one solve.

    The complex solver takes the stack when any block has an imaginary
    part, else the real solver takes its real view, without a copy.  An
    eigenvalue with |lam| <= k eps max|lam| of its k x k block, within
    eigvalsh's backward error of 0, is set to 0 (_eigvalsh).
    """
    return _eigvalsh(stack, stack.dtype.kind == "c" and bool(stack.imag.any()))


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
    if not groups:
        return populations.copy()
    free = np.ones(populations.size, dtype=bool)
    found = []
    for index, values in groups:
        free[index] = False
        found.append(_stack_eigenvalues(values).ravel())
    return np.concatenate([populations[free], *found])


def state_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of a density matrix, sorted descending, as a read-only array.

    The populations outside blocks are eigenvalues as they are; each block
    group is solved in one stacked call, and a dense matrix in one call; a
    state stored by class repeats each class's and block's values by
    multiplicity.  Solved on the first call and cached on the state, so
    entropy, ergotropy and the passive state of one state share one solve.
    """
    if rho._spectrum is None:
        if rho._record is not None:
            vals = rho._record.spectrum()
        elif rho._dense is not None:
            vals = np.sort(_stack_eigenvalues(rho._dense[None])[0])[::-1]
        else:
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
    """-sum(lam * ln lam) over the positive eigenvalues, in the order given, at least 0.
    A lone positive eigenvalue is the trace, 1 up to rounding: a pure state, entropy 0."""
    nz = lam[lam > 0.0]
    return max(0.0, float(-(nz * np.log(nz)).sum())) if nz.size > 1 else 0.0


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

    Accepts either a dense matrix (checked for unitarity; the result is the
    dense product, a new matrix) or a
    StructuredUnitary, whose pair rotations update the state's parts
    without a dense matrix.
    """
    if isinstance(unitary, StructuredUnitary):
        if unitary.dim != rho.dim:
            raise ShapeError(
                f"unitary dimension {unitary.dim} does not match state dimension {rho.dim}"
            )
        return DensityMatrix(_rotate_parts(rho, unitary))

    mat = _array(unitary, complex)
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
