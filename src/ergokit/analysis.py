"""Entanglement detection, bath-assisted bounds and level counting.

Entanglement is certified by negativity under partial transposition
(NPT); a PPT outcome is reported as undecided, never as separability.
For the rotated product-thermal states an analytic witness for the
half/half split is available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (PSD_TOL, DensityMatrix, SystemSpec, _check_bytes,
                   _component_blocks, _component_labels, _integer, _items, _marginals,
                   _parts_eigenvalues, _binomial_weight, _real, _spectrum_entropy,
                   _stack_eigenvalues, _subsystem_index, von_neumann_entropy)
from .errors import DomainError, ShapeError, UnsupportedError, ValidityError
from .passivity import _energy, _level_table, thermal_entropy, thermal_params

NPT_EIGENVALUE_TOL = -1e-10
# bytes per stored block entry that min_pt_eigenvalue's edge list and moved
# indices take at their peak (measured 29-39 with the component blocks)
_PT_ENTRY_BYTES = 48


@dataclass(frozen=True)
class Bipartition:
    """A split of the n subsystems into side_a and its complement."""

    side_a: frozenset[int]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "subsystem count"))
        side = frozenset(_subsystem_index(i, self.n) for i in _items(self.side_a, "side_a"))
        object.__setattr__(self, "side_a", side)
        if not side or len(side) >= self.n:
            raise DomainError("both sides of a bipartition must be nonempty")

    @property
    def side_b(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.side_a

    @classmethod
    def half_split(cls, n: int) -> "Bipartition":
        n = _integer(n, "subsystem count")
        return cls(side_a=frozenset(range(1, n // 2 + 1)), n=n)


@dataclass(frozen=True)
class EntanglementVerdict:
    """NPT verdict from the minimum partial-transpose eigenvalue."""

    min_pt_eigenvalue: float
    witness_value: Optional[float]
    verdict: str

    ENTANGLED = "entangled"
    UNDECIDED = "ppt_undecided"


def _check_split(rho: DensityMatrix, spec: SystemSpec, part: Bipartition):
    if rho.dim != spec.dim:
        raise ShapeError(f"state dimension {rho.dim} does not match spec dimension {spec.dim}")
    if part.n != spec.n:
        raise ShapeError(f"bipartition over {part.n} subsystems, spec has {spec.n}")


def min_pt_eigenvalue(rho: DensityMatrix, spec: SystemSpec,
                      part: Bipartition) -> float:
    """Smallest eigenvalue of the partial transpose, from the state's parts.

    Partial transposition keeps the diagonal and moves the block entry
    (i, j) to (i with the side_a digits of j, j with the side_a digits of
    i).  The nonzero moved entries link their two indices; each connected
    component is solved as one block, equal-size components in one stacked
    call, and every other index contributes its diagonal entry (0 where no
    entry reaches it).  A dense matrix (core.DensityMatrix) is read as its
    one group over every index, whose moved entries are linked like those
    of any block.  Besides the component
    blocks its arrays take O(dim + stored entries) bytes; raises
    CapacityError before the moved entries, or they and the component
    blocks, exceed core.DENSE_BYTES_MAX.
    """
    _check_split(rho, spec, part)
    if not rho.groups:  # a diagonal matrix is its own partial transpose
        return float(rho.populations.min())
    dim, d = spec.dim, spec.d
    side = np.zeros(dim, dtype=np.int64)  # the side_a digits of every index, in place
    for sub in part.side_a:
        place = d ** (spec.n - sub)
        side += np.arange(dim) // place % d * place
    stored = sum(values.size for _, values in rho.groups)
    _check_bytes(_PT_ENTRY_BYTES * stored, "the partial transpose's moved entries")
    edges = [np.empty((2, 0), dtype=np.int64)]
    for index, values in rho.groups:
        base, digits = index - side[index], side[index]
        nonzero, k = values != 0, index.shape[1]
        # entry (r, c) moves to (base r + digits c, base c + digits r) and (c, r)
        # to the mirror position: one edge per pair r < c with either entry nonzero
        upper = np.arange(k)[:, None] < np.arange(k)
        blk, r, c = np.nonzero((nonzero | nonzero.swapaxes(1, 2)) & upper)
        edges.append(np.stack([base[blk, r] + digits[blk, c], base[blk, c] + digits[blk, r]]))
    edges = np.concatenate(edges, axis=1)
    label = _component_labels(dim, *edges)
    count = np.bincount(label, minlength=dim)
    member = count[label] > 1  # in a component of two or more
    stack_bytes = 16 * int((count[count > 1] ** 2).sum())
    _check_bytes(_PT_ENTRY_BYTES * stored + stack_bytes, "the partial transpose's components")
    diag = rho.diagonal
    stacks = _component_blocks(label, member, diag, rho.groups, swap=side)[0]
    return float(_parts_eigenvalues(diag, stacks.values()).min())


def entanglement_verdict(rho: DensityMatrix, spec: SystemSpec, part: Bipartition,
                         witness_value: Optional[float] = None) -> EntanglementVerdict:
    smallest = min_pt_eigenvalue(rho, spec, part)
    verdict = (EntanglementVerdict.ENTANGLED if smallest < NPT_EIGENVALUE_TOL
               else EntanglementVerdict.UNDECIDED)
    return EntanglementVerdict(min_pt_eigenvalue=smallest,
                               witness_value=witness_value, verdict=verdict)


def npt_witness_half_split(spec: SystemSpec, beta_prime: float, angle: float) -> float:
    """Closed-form NPT witness for the rotated product-thermal state.

    Returns sin(2 angle) (1 - e^(-beta' E n)) - 2 e^(-beta' E n / 2); a
    positive value certifies entanglement of the angle-rotated product
    thermal state across the half/half split (even n).  It tracks a single
    coherence pair, so a negative value decides nothing.  beta' must be
    finite and >= 0, and the angle finite.
    """
    if spec.d != 2:
        raise UnsupportedError("the closed-form witness applies to qubits only")
    if spec.n % 2:
        raise DomainError("the half/half witness requires an even subsystem count")
    beta_prime, angle = _real(beta_prime, "inverse temperature"), _real(angle, "angle")
    if not (beta_prime >= 0.0 and math.isfinite(beta_prime)):
        raise DomainError(f"inverse temperature must be finite and >= 0, got {beta_prime}")
    if not math.isfinite(angle):
        raise DomainError(f"rotation angle must be finite, got {angle}")
    x = beta_prime * spec.energy_gap * spec.n
    return math.sin(2.0 * angle) * (1.0 - math.exp(-x)) - 2.0 * math.exp(-x / 2.0)


def free_energy(rho: DensityMatrix, hamiltonian, beta: float) -> float:
    """F = Tr(H rho) - S(rho)/beta at inverse temperature beta > 0; H is a vector or a spec."""
    beta = _real(beta, "inverse temperature")
    if not beta > 0.0:
        raise DomainError(f"inverse temperature must be positive, got {beta}")
    return _energy(rho, _level_table(rho, hamiltonian)) - von_neumann_entropy(rho) / beta


def bath_extractable_work(spec: SystemSpec, total_entropy: float) -> float:
    """Work from a locally thermal state of entropy S given a bath at beta.

    Equals (n S(tau_beta) - S)/beta: the multipartite mutual information
    over beta, and identically the free-energy gap to the product thermal
    state.
    """
    if spec.beta <= 0.0:
        raise DomainError("the bath bound requires a positive inverse temperature")
    s = _real(total_entropy, "total entropy")
    s_top = spec.n * thermal_entropy(spec)
    if not -1e-12 <= s <= s_top + 1e-9:
        raise DomainError(f"total entropy {s} outside [0, n S(tau_beta) = {s_top!r}]")
    return (s_top - s) / spec.beta


def mutual_information_multipartite(rho: DensityMatrix, spec: SystemSpec) -> float:
    """Sum of marginal entropies minus the global entropy.

    Every single-site marginal comes from core._marginals (class sums for a
    record, a reshaped partial trace for a dense matrix, one walk over the
    parts otherwise), and all of them from one stacked eigensolve; a
    marginal eigenvalue below -1e-10 raises ValidityError, as it does for
    any state.
    """
    spectra = np.sort(_stack_eigenvalues(_marginals(rho, spec, range(1, spec.n + 1))))
    marginal_total = 0.0
    for lam in spectra[:, ::-1]:
        if lam[-1] < -PSD_TOL:
            raise ValidityError(f"state has eigenvalue {lam[-1]:.3e} below -{PSD_TOL}")
        marginal_total += _spectrum_entropy(lam)
    return float(marginal_total - von_neumann_entropy(rho))


def count_global_energies(n: int, d: int) -> int:
    """Number of distinct total energies for a generic local ladder.

    Each multiset of n digits from d symbols gives one energy when the
    ladder has no accidental coincidences: C(n + d - 1, d - 1).
    """
    n, d = _integer(n, "subsystem count"), _integer(d, "local dimension")
    if n < 0 or d < 1:
        raise DomainError(f"need n >= 0 and d >= 1, got n = {n}, d = {d}")
    return math.comb(n + d - 1, d - 1)


def dicke_mixture_work_formula(spec: SystemSpec) -> float:
    """Closed-form ergotropy of the qubit Dicke mixture.

    n E_beta - (1 - max_k C(n,k) p^k (1-p)^(n-k)) E.  The passive state
    parks the largest of the n + 1 binomial weights on the ground level
    and the remaining n inside the first excited shell, so the exact
    maximizing k is used (not the typical-value approximation).
    """
    if spec.d != 2:
        raise UnsupportedError("the closed form applies to qubits only")
    params = thermal_params(spec)
    p = params.populations[1]
    n = spec.n
    largest = max(_binomial_weight(n, k, p, 1.0 - p) for k in range(n + 1))
    return n * params.mean_energy - (1.0 - largest) * spec.energy_gap
