"""Scalar reference for families.diagonal_state_at_entropy.

The forward scan below evaluates the scalar f once per grid point, in
order, and bisects at the first crossing.  The package proposes the
crossing from one NumPy pass over the same grid instead; its answers and
refusals must equal these to the bit.
"""

import math

import numpy as np

from ergokit import SystemSpec
from ergokit.errors import DomainError, InfeasibilityError
from ergokit.families import (
    GAMMA_BISECTION_TOL, GAMMA_SCAN_STEP, DiagonalFamilyParams, _shell_family_entropy,
    smallest_shell_for_entropy,
)
from ergokit.passivity import thermal_entropy, thermal_params


def diagonal_family_params(spec: SystemSpec, total_entropy: float) -> DiagonalFamilyParams:
    """The weights diagonal_state_at_entropy chooses, by a scalar scan of the grid."""
    s = float(total_entropy)
    n = spec.n
    p = thermal_params(spec).populations[1]
    s_local = thermal_entropy(spec)
    if not s >= s_local - 1e-9:
        raise DomainError(
            f"global entropy {s} below the locally thermal minimum {s_local!r}"
        )
    shell = smallest_shell_for_entropy(n, max(s, 0.0))
    ln_shell_size = math.log(math.comb(n, shell))
    hi = 1.0
    if shell > 0:
        hi = min(hi, n * p / shell)
    hi = min(hi, n * (1.0 - p) / (n - shell))

    def resid(g: float) -> float:
        return _shell_family_entropy(g, p, n, shell, ln_shell_size) - s

    gamma = first_crossing(resid, hi)
    if gamma is None:
        grid = np.arange(0.0, hi + GAMMA_SCAN_STEP, GAMMA_SCAN_STEP)
        grid = grid[grid <= hi]
        values = [resid(float(g)) + s for g in grid]
        raise InfeasibilityError(
            f"no shell weight in [0, {hi!r}] reaches entropy {s}; "
            f"family covers [{min(values)!r}, {max(values)!r}]"
        )
    return DiagonalFamilyParams(
        ground_weight=1.0 - p - gamma * (n - shell) / n,
        top_weight=p - gamma * shell / n,
        shell_weight=gamma,
        shell_excitations=shell,
    )


def first_crossing(resid, hi: float):
    """First sign change of resid on [0, hi] by forward scan, then bisection."""
    prev_g = 0.0
    prev_r = resid(0.0)
    if abs(prev_r) <= 1e-9:
        return 0.0
    steps = int(math.ceil(hi / GAMMA_SCAN_STEP))
    for k in range(1, steps + 1):
        g = min(k * GAMMA_SCAN_STEP, hi)
        r = resid(g)
        if abs(r) <= GAMMA_BISECTION_TOL:
            return g
        if (prev_r < 0.0) != (r < 0.0):
            lo, lo_r, up = prev_g, prev_r, g
            for _ in range(200):
                mid = 0.5 * (lo + up)
                mid_r = resid(mid)
                if abs(mid_r) <= GAMMA_BISECTION_TOL:
                    return mid
                if (mid_r < 0.0) == (lo_r < 0.0):
                    lo, lo_r = mid, mid_r
                else:
                    up = mid
            return 0.5 * (lo + up)
        prev_g, prev_r = g, r
    return None
