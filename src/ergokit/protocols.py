"""Explicit work-storage unitaries for qubit ensembles.

Two protocol families are realized as structured (pair-rotation)
unitaries acting on a product thermal state:

* equal-angle rotations in every subspace spanned by a basis state and
  its bit-wise negation, which tune the local bias continuously via
  bias = cos(2 angle) * bias', and
* full population inversions of a single excitation shell, which shift
  the bias in discrete steps and, chained greedily, approximate any
  weaker or reversed bias with an error vanishing as the ensemble grows.

prepare_locally_thermal and inversion_sequence_to_bias return their
states as class records (core._Record), built from the Gibbs weights at
beta' with no 2^n vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    DensityMatrix,
    StructuredUnitary,
    SystemSpec,
    _binomial_weight,
    _check_vector_size,
    _hamming_weights,
    _integer,
    _real,
    _Record,
    partial_trace_to,
)
from .errors import DomainError, UnreachableBiasError, UnsupportedError
from .passivity import BETA_MAX_SCALE, ThermalParams, thermal_params


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of a bias-steering protocol run."""

    state: DensityMatrix
    achieved_bias: float
    target_bias: float
    beta_local: float
    angle: Optional[float] = None
    levels: tuple[int, ...] = field(default_factory=tuple)

    @property
    def residual(self) -> float:
        return abs(self.achieved_bias - self.target_bias)


def _require_qubits(spec: SystemSpec):
    if spec.d != 2:
        raise UnsupportedError("protocol unitaries are implemented for qubits only")


def pair_rotation_unitary(spec: SystemSpec, angle: float) -> StructuredUnitary:
    """Equal rotation in every subspace {|i>, |negation(i)>} with |i| < n/2.

    Indices of weight exactly n/2 (even n) pair among themselves and are
    left untouched.  For odd n this yields 2^(n-1) rotations.
    """
    _require_qubits(spec)
    low = np.flatnonzero(2 * _hamming_weights(spec.n) < spec.n)
    return StructuredUnitary.from_pairs(low, (spec.dim - 1) ^ low, _real(angle, "angle"),
                                        spec.dim)


def level_inversion_unitary(spec: SystemSpec, level: int) -> StructuredUnitary:
    """Full swap (pi/2 rotation) of every weight-`level` index with its negation."""
    _require_qubits(spec)
    level = _integer(level, "level")
    if not 0 <= level < spec.n / 2:
        raise DomainError(f"level {level} outside [0, n/2) for n = {spec.n}")
    shell = np.flatnonzero(_hamming_weights(spec.n) == level)
    return StructuredUnitary.from_pairs(shell, (spec.dim - 1) ^ shell, math.pi / 2, spec.dim)


def measure_bias(rho: DensityMatrix, spec: SystemSpec, subsystem: int = 1) -> float:
    """Population difference p0 - p1 of one subsystem's reduced state."""
    _require_qubits(spec)
    marginal = partial_trace_to(rho, spec, subsystem)
    diag = marginal.diagonal
    return float(diag[0] - diag[1])


def local_beta_for_bias(spec: SystemSpec, bias: float) -> float:
    """Inverse temperature whose thermal qubit has the given bias.

    |bias| >= 1 returns the signed beta' = infinity sentinel of
    beta_for_entropy; a zero gap returns 0, since every temperature then
    gives the same (unbiased) state.  A gap so small that beta' or the
    sentinel overflows raises DomainError; bias 0 gives 0 at any gap.
    """
    _require_qubits(spec)
    bias = _real(bias, "bias")
    if math.isnan(bias):
        raise DomainError("bias must be a number, got nan")
    gap = spec.energy_gap
    if gap == 0.0:
        return 0.0
    scaled = math.copysign(BETA_MAX_SCALE, bias) if abs(bias) >= 1.0 else 2.0 * math.atanh(bias)
    beta = scaled / gap
    if math.isinf(beta):
        raise DomainError(f"energy gap {gap!r} is too small: the local beta of bias {bias!r} "
                          f"overflows")
    return beta


def prepare_locally_thermal(spec: SystemSpec, beta_prime: float,
                            target_bias: float) -> ProtocolResult:
    """Rotate a product thermal state to the requested local bias.

    The rotation angle solves target = cos(2 angle) * bias', so any bias
    with |target| <= bias' = tanh(beta' E / 2) is reachable; the global
    spectrum (hence entropy) is untouched.  The state is the record that
    pair_rotation_unitary makes of the product (_rotated_product), built
    in O(n) with no 2^n vector, and its bias is read from its classes.
    """
    _require_qubits(spec)
    target_bias = _real(target_bias, "target bias")
    params = _reachable_params(spec, beta_prime, target_bias)
    bias_prime = params.bias
    if bias_prime == 0.0:
        angle = 0.0
    else:
        ratio = min(max(target_bias / bias_prime, -1.0), 1.0)
        angle = 0.5 * math.acos(ratio)
    _check_vector_size(spec.dim)  # the state is sized as one on the full basis
    state = DensityMatrix(_rotated_product(spec, params.populations, angle))
    achieved = measure_bias(state, spec)
    return ProtocolResult(
        state=state,
        achieved_bias=achieved,
        target_bias=target_bias,
        beta_local=local_beta_for_bias(spec, achieved),
        angle=angle,
    )


def _rotated_product(spec: SystemSpec, populations, angle: float) -> _Record:
    """The qubit product of weights (q, p), rotated by angle in each pair (x, ~x), |x| < n/2.

    Pair block k starts as diag(w_k, w_(n-k)), the product weights
    w_j = p^j q^(n-j) of x and ~x for |x| = k, and is rotated with the
    row-then-column expressions of core._rotate_parts.  For even n the
    shell n/2, which no rotation touches, is a population class.
    """
    n, (q, p) = spec.n, populations
    c, s = math.cos(angle), math.sin(angle)
    k = np.arange((n + 1) // 2)
    low, high = p ** k * q ** (n - k), p ** (n - k) * q ** k
    pairs = np.empty((k.size, 2, 2))
    pairs[:, 0, 0] = c * (c * low) + s * (s * high)
    pairs[:, 0, 1] = -s * (c * low) + c * (s * high)
    pairs[:, 1, 0] = c * (-s * low) + s * (c * high)
    pairs[:, 1, 1] = -s * (-s * low) + c * (c * high)
    half = [(n // 2, n // 2)] if n % 2 == 0 else []
    return _Record(spec, half, [_binomial_weight(n, n // 2, p, q) for _ in half], pairs=pairs)


def bias_after_inversion(spec: SystemSpec, excited_probability: float,
                         level: int) -> float:
    """Exact local bias after inverting one shell of a product thermal state.

    Starting from per-qubit excitation probability p', swapping the
    populations of the shells with `level` and n - `level` excitations
    shifts the bias by
        2 C(n, level) (z' + 2 mu / n) (p'^(n-level) (1-p')^level
                                       - p'^level (1-p')^(n-level))
    with z' = 1 - 2 p' and mu = n p' - level: z' + 2 mu / n = (n - 2 level) / n.
    """
    _require_qubits(spec)
    n, level = spec.n, _integer(level, "level")
    if not 0 <= level < n / 2:
        raise DomainError(f"level {level} outside [0, n/2) for n = {n}")
    p = _real(excited_probability, "excitation probability")
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"excitation probability {p} outside [0, 1]")
    q = 1.0 - p
    return q - p + _inversion_shift(n, level, _binomial_weight(n, level, p, q),
                                    _binomial_weight(n, n - level, p, q))


def _inversion_shift(n: int, level: int, low: float, high: float) -> float:
    """Bias shift of swapping weights low and high of shells level and n - level."""
    return 2.0 * (n - 2 * level) / n * (high - low)


def _reachable_params(spec: SystemSpec, beta_prime: float, target_bias: float) -> ThermalParams:
    """Gibbs weights at beta'; UnreachableBiasError if |target| exceeds bias' + 1e-12."""
    params = thermal_params(spec, beta_prime)
    if not abs(target_bias) <= params.bias + 1e-12:
        raise UnreachableBiasError(
            f"target bias {target_bias} exceeds the reachable range "
            f"[-{params.bias!r}, {params.bias!r}]"
        )
    return params


def inversion_sequence_to_bias(spec: SystemSpec, beta_prime: float,
                               target_bias: float) -> ProtocolResult:
    """Greedy chain of shell inversions steering the bias toward a target.

    Candidate shells are level = round(n p' - mu) for mu = 0, +1, -1,
    +2, -2, ... (each shell used at most once); the chain stops at the
    first step that would not shrink the residual.  It runs on the n + 1
    shell weights of tau_beta'^(x n): an inversion swaps two, and shifts
    the bias in O(1).  The result is a classical, locally thermal shell
    record, whose bias is measured once.
    """
    _require_qubits(spec)
    target_bias = _real(target_bias, "target bias")
    params = _reachable_params(spec, beta_prime, target_bias)
    n = spec.n
    _check_vector_size(spec.dim)  # the state is sized as one on the full basis
    ground, excited = params.populations
    weights = [_binomial_weight(n, k, excited, ground) for k in range(n + 1)]
    # the weights' own bias, so a swap that mirrors it about 0 gives exactly -bias
    bias = math.fsum(w * (n - 2 * k) for k, w in enumerate(weights)) / n
    applied: list[int] = []
    for mu in [0] + [m * sign for m in range(1, n + 1) for sign in (1, -1)]:
        level = int(round(n * excited - mu))
        if level < 0 or level >= n / 2 or level in applied:
            continue
        candidate_bias = bias + _inversion_shift(n, level, weights[level], weights[n - level])
        if abs(candidate_bias - target_bias) < abs(bias - target_bias):
            weights[level], weights[n - level] = weights[n - level], weights[level]
            bias = candidate_bias
            applied.append(level)
        else:
            break
    state = DensityMatrix(_Record(spec, [(n - k, k) for k in range(n + 1)], weights))
    achieved = measure_bias(state, spec)
    return ProtocolResult(
        state=state,
        achieved_bias=achieved,
        target_bias=target_bias,
        beta_local=local_beta_for_bias(spec, achieved),
        levels=tuple(applied),
    )
