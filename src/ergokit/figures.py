"""The three reference work-ratio curves for qubit ensembles.

For n = 1..n_max at fixed beta * E, computes extractable work in units of
the total initial energy n E_beta for
* the locally thermal entangled pure state (ratio 1: a pure state's passive energy is 0),
* the optimal separable (diagonal) state, and
* the entropy-constrained bound at the separable state's entropy.

Each column is a closed form or a scalar root solve (the bracketed Newton
iteration of `beta_for_entropy`, which starts at beta and stops on its
step, so the n = 1 bound is exactly 0 and every ratio is within a few
1e-15 relative of the exact value); no state is built, so n far beyond
the byte limit on state-sized arrays is fine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SystemSpec, _integer
from .errors import DomainError
from .passivity import (
    entropy_constrained_bound,
    separable_work_limit,
    thermal_entropy,
    thermal_params,
)


@dataclass(frozen=True)
class Figure1Row:
    n: int
    entangled_ratio: float
    separable_ratio: float
    entropy_bound_ratio: float


def figure1_rows(beta_e: float = 1.0, n_max: int = 20) -> list[Figure1Row]:
    """One row per ensemble size with the three work ratios."""
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        spec = SystemSpec.qubits(n, beta=beta_e)
        bound = n * thermal_params(spec).mean_energy
        if bound == 0.0:
            raise DomainError(
                f"total energy n E_beta underflows to 0 at beta E = {beta_e}, "
                "so the work ratios are undefined"
            )
        separable = separable_work_limit(spec)
        entropy_bound = entropy_constrained_bound(spec, thermal_entropy(spec))
        rows.append(Figure1Row(
            n=n,
            entangled_ratio=1.0,
            separable_ratio=separable / bound,
            entropy_bound_ratio=entropy_bound / bound,
        ))
    return rows
