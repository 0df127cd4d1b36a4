"""Passive states, ergotropy and the analytic work bounds.

The central quantity is the ergotropy of a state rho under a diagonal
Hamiltonian H: the energy gap between rho and its passive counterpart,
obtained by placing the eigenvalues of rho, sorted descending, onto the
energy levels sorted ascending; the spectrum comes from `state_eigenvalues`,
solved once per state.  H is an energy vector or a SystemSpec, read as its
level table (`core._Levels`), whose levels are sorted per class, not per
basis state, so no 2^n energy vector is built or sorted.
Thermal (Gibbs) states are the completely passive reference; the
entropy-constrained bound is evaluated by inverting the thermal-entropy
map with a bracketed Newton iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DensityMatrix,
    ShapeError,
    SystemSpec,
    _array,
    _Levels,
    _real,
    state_eigenvalues,
)
from .errors import DomainError, NumericalError, UnsupportedError

# beta' = infinity is represented by this sentinel (in units of the first
# local gap); the thermal entropy there must underflow below 1e-12.
BETA_MAX_SCALE = 1e6

ENTROPY_SOLVE_TOL = 1e-12
ENTROPY_SOLVE_MAX_ITER = 200


@dataclass(frozen=True)
class ThermalParams:
    """Gibbs weights of one subsystem at a given inverse temperature.

    populations holds all d level occupations e^(-beta E_a)/Z, ground
    level included.
    """

    beta_prime: float
    populations: tuple[float, ...]
    partition_function: float
    mean_energy: float

    @property
    def bias(self) -> float:
        """Population difference p0 - p1; only meaningful for qubits."""
        if len(self.populations) != 2:
            raise UnsupportedError("bias is defined for two-level subsystems only")
        return self.populations[0] - self.populations[1]

    @property
    def entropy(self) -> float:
        """beta <E> + ln Z, with ln Z = log1p(excited Boltzmann weights).

        Summing -p ln p instead loses the ground term's digits once p0 is
        within an ulp of 1 (beta E of about 30 and above).
        """
        excited = self.partition_function * math.fsum(self.populations[1:])
        return self.beta_prime * self.mean_energy + math.log1p(excited)


@dataclass(frozen=True)
class WorkReport:
    """Energy bookkeeping of one work-extraction assessment."""

    initial_energy: float
    passive_energy: float
    ergotropy: float
    bound_total_energy: Optional[float] = None
    bound_entropy: Optional[float] = None
    ratio_to_bound: Optional[float] = None


def thermal_params(spec: SystemSpec, beta: Optional[float] = None) -> ThermalParams:
    """Gibbs populations, partition function and mean energy at beta.

    beta defaults to the reference inverse temperature of the spec.  The
    weights at the reference beta are computed once per spec and kept on
    it, so every later call at that beta returns the same ThermalParams.
    The d weights are Python floats, summed with math.fsum.  Each
    population, Z, <E> and the entropy is within 2^-50 (1 + beta E_max)
    relative of its exact value, or within four subnormal steps below the
    smallest normal float: rounding beta E_a before the exponential moves a
    weight by up to beta E_a ulp, and the rest rounds a few times.
    """
    if beta is not None:
        b = _real(beta, "inverse temperature")
        # 0.0 == -0.0, but the two give beta_prime different signs
        if b != spec.beta or b == 0.0:
            return _gibbs(spec, b)
    params = spec._reference
    if params is None:
        params = _gibbs(spec, spec.beta)
        object.__setattr__(spec, "_reference", params)
    return params


def _gibbs(spec: SystemSpec, b: float) -> ThermalParams:
    """The Gibbs weights of thermal_params at inverse temperature b."""
    if b < 0.0 or not math.isfinite(b):
        raise DomainError(f"inverse temperature must be finite and >= 0, got {b}")
    ladder = spec.local_energies
    weights = [math.exp(-b * e) for e in ladder]
    z = math.fsum(weights)
    pops = tuple(w / z for w in weights)
    return ThermalParams(
        beta_prime=b,
        populations=pops,
        partition_function=z,
        mean_energy=math.fsum(p * e for p, e in zip(pops, ladder)),
    )


def thermal_state(spec: SystemSpec, beta: Optional[float] = None) -> DensityMatrix:
    """Single-subsystem Gibbs state e^(-beta h)/Z as a d x d density matrix."""
    return DensityMatrix.from_diagonal(thermal_params(spec, beta).populations)


def thermal_entropy(spec: SystemSpec, beta: Optional[float] = None) -> float:
    """Entropy of the single-subsystem Gibbs state, in nats."""
    return thermal_params(spec, beta).entropy


def passive_state(rho: DensityMatrix, hamiltonian) -> DensityMatrix:
    """Passive counterpart: descending eigenvalues on ascending energy levels.

    hamiltonian is an energy vector or a SystemSpec.  Ties in energy are
    broken by ascending basis index (stable sort), which fixes a
    deterministic representative without changing the energy.
    """
    energies = _level_table(rho, hamiltonian).per_index()
    lam = state_eigenvalues(rho)
    order = np.argsort(energies, kind="stable")
    diag = np.empty(rho.dim)
    diag[order] = lam
    return DensityMatrix.from_diagonal(diag)


def ergotropy(rho: DensityMatrix, hamiltonian, spec: Optional[SystemSpec] = None,
              total_entropy: Optional[float] = None) -> WorkReport:
    """Maximal unitarily extractable work from rho under a diagonal H.

    hamiltonian is an energy vector or a SystemSpec.  The passive energy is
    the descending spectrum times the ascending levels, each repeated by its
    size.  When spec is given, or hamiltonian is a spec, the report also
    carries the total-energy bound n * E_beta for locally thermal states
    and the ratio to it; passing total_entropy additionally fills the
    entropy-constrained bound.
    """
    levels = _level_table(rho, hamiltonian)
    if spec is None and isinstance(hamiltonian, SystemSpec):
        spec = hamiltonian
    initial = _energy(rho, levels)
    passive = float(state_eigenvalues(rho) @ levels.ascending())
    work = initial - passive
    bound_total = bound_entropy = ratio = None
    if spec is not None:
        bound_total = spec.n * thermal_params(spec).mean_energy
        if total_entropy is not None:
            bound_entropy = entropy_constrained_bound(spec, total_entropy)
        if bound_total > 0.0:
            ratio = work / bound_total
    return WorkReport(
        initial_energy=initial,
        passive_energy=passive,
        ergotropy=work,
        bound_total_energy=bound_total,
        bound_entropy=bound_entropy,
        ratio_to_bound=ratio,
    )


def is_passive(rho: DensityMatrix, hamiltonian) -> bool:
    """True iff no unitary lowers the energy of rho under H, a vector or a spec.

    Its ergotropy is zero: at most 1e-12 * max(1, max|E|), read from the
    state's one cached spectrum, so coherence too weak to give that much
    work reads as passive.
    """
    levels = _level_table(rho, hamiltonian)
    return bool(ergotropy(rho, levels).ergotropy
                <= 1e-12 * max(1.0, np.abs(levels.energies).max()))


def beta_for_entropy(spec: SystemSpec, entropy_per_subsystem: float) -> ThermalParams:
    """Invert the thermal-entropy map: find beta' with S(tau_beta') = s.

    A bracketed Newton iteration on beta', starting at the reference beta
    (at 1/gap when that is 0 or at the sentinel), whose weights the spec
    already holds (thermal_params), so s = S(tau_beta) returns beta itself,
    with the slope dS/dbeta' = -beta' Var(E).  The Newton step is taken on
    ln S, because S falls like beta' E e^(-beta' E) at large beta', where a
    step on S itself moves beta' by only about 1/E; a step that does not
    land strictly inside the bracket, or whose slope underflows to 0 (at a
    subnormal beta'), is replaced by a bisection, geometric while the
    bracket spans more than a factor of 4 above a positive lower end.  The
    iteration stops once the Newton step lands within 4 ulp of beta', the
    stop of the shell-weight solve in `families`, or when the bracket can
    no longer be split; Newton converges quadratically, so beta' is then as
    right as the rounding of S at it allows.  s = ln d returns beta' = 0;
    s at or below the sentinel entropy returns the beta_max sentinel, and a
    gap so small that the sentinel overflows raises DomainError.
    """
    s = _real(entropy_per_subsystem, "entropy per subsystem")
    s_max = math.log(spec.d)
    if not -ENTROPY_SOLVE_TOL <= s <= s_max + ENTROPY_SOLVE_TOL:
        raise DomainError(
            f"entropy per subsystem {s} outside [0, ln d = {s_max!r}]"
        )
    s = min(max(s, 0.0), s_max)
    if s_max - s <= ENTROPY_SOLVE_TOL:
        return thermal_params(spec, 0.0)
    gap = spec.energy_gap if spec.energy_gap > 0.0 else 1.0
    beta_max = BETA_MAX_SCALE / gap
    if beta_max == math.inf:
        raise DomainError(f"energy gap {gap!r} is too small for the entropy solve: "
                          f"its sentinel beta_max = {BETA_MAX_SCALE:g} / gap overflows")
    floor_params = thermal_params(spec, beta_max)
    if s <= floor_params.entropy:
        return floor_params
    ladder = spec.local_energies
    lo, hi = 0.0, beta_max
    beta = spec.beta if 0.0 < spec.beta < beta_max else 1.0 / gap
    for _ in range(ENTROPY_SOLVE_MAX_ITER):
        params = thermal_params(spec, beta)
        entropy = params.entropy
        variance = (math.fsum(p * e * e for p, e in zip(params.populations, ladder))
                    - params.mean_energy ** 2)
        slope = beta * variance  # -dS/dbeta'
        step = math.nan
        if entropy > 0.0 and slope > 0.0:
            step = beta + (math.log(entropy) - math.log(s)) * entropy / slope
        if abs(step - beta) <= 4.0 * math.ulp(beta):
            return params
        if entropy > s:
            lo = beta  # entropy decreases with beta
        else:
            hi = beta
        if lo < step < hi:
            beta = step
        elif lo > 0.0 and hi > 4.0 * lo:
            beta = math.sqrt(lo * hi)
        else:
            beta = 0.5 * (lo + hi)
        if not lo < beta < hi:
            return params
    if abs(params.entropy - s) > 1e-9:
        raise NumericalError(
            f"entropy solve stalled at residual {params.entropy - s:.3e}"
        )
    return params


def entropy_constrained_bound(spec: SystemSpec, total_entropy: float) -> float:
    """Upper bound on extractable work from locally thermal states of fixed entropy.

    Equals n E_beta minus the energy of the product thermal state whose
    per-subsystem entropy is total_entropy / n.  A total within 1e-9 above
    n ln d is taken as n ln d; beyond that it raises DomainError.
    """
    s = _real(total_entropy, "total entropy")
    if not -1e-12 <= s <= spec.n * math.log(spec.d) + 1e-9:
        raise DomainError(
            f"total entropy {s} outside [0, n ln d = {spec.n * math.log(spec.d)!r}]"
        )
    final = beta_for_entropy(spec, min(s / spec.n, math.log(spec.d)))
    initial = thermal_params(spec)
    return spec.n * (initial.mean_energy - final.mean_energy)


def separable_work_limit(spec: SystemSpec) -> float:
    """Maximal work stored in separable locally thermal states.

    n E_beta - E_1 (1 - 1/Z); valid in the many-subsystem regime
    n >= d - 1, where the d - 1 largest populations fit into the first
    excited shell.  1 - 1/Z is summed as the excited populations, since
    the subtraction cancels to nothing at large beta.
    """
    if spec.n < spec.d - 1:
        raise DomainError(
            f"formula requires n >= d - 1, got n = {spec.n}, d = {spec.d}"
        )
    params = thermal_params(spec)
    return spec.n * params.mean_energy - spec.energy_gap * math.fsum(
        params.populations[1:]
    )


def _level_table(rho: DensityMatrix, hamiltonian) -> _Levels:
    """hamiltonian, a spec, a level table or an energy vector, as a table of rho's dimension."""
    if isinstance(hamiltonian, SystemSpec):  # its table is built once its dimension matches
        if hamiltonian.dim != rho.dim:
            raise ShapeError(f"spec dimension {hamiltonian.d}^{hamiltonian.n} does not match "
                             f"state dimension {rho.dim}")
        return _Levels.of_spec(hamiltonian)
    levels = hamiltonian if isinstance(hamiltonian, _Levels) else \
        _Levels(_array(hamiltonian, float).ravel())
    if levels.dim != rho.dim:
        raise ShapeError(
            f"Hamiltonian length {levels.dim} does not match state dimension {rho.dim}")
    if levels.spec is None and not np.isfinite(levels.energies).all():  # a spec's are finite
        raise DomainError("Hamiltonian has non-finite energies")
    return levels


def _energy(rho: DensityMatrix, levels: _Levels) -> float:
    """Tr(rho H): by class for a state stored by class against its spec's table, else by index."""
    record = rho._record
    if record is None or levels.spec is None or levels.spec.d != record.spec.d:
        return float(rho.diagonal @ levels.per_index())
    return float(sum(w * sum(c * e for c, e in zip(counts, levels.spec.local_energies))
                     for w, counts in record.classes()))
