"""Dense references that the package's structured paths are tested against."""

import numpy as np

from ergokit import Bipartition, DensityMatrix, SystemSpec, thermal_params


def dense_partial_trace(arr: np.ndarray, spec: SystemSpec, keep: int) -> np.ndarray:
    """One site's reduced state of a dense matrix, by reshape and trace."""
    d = spec.d
    tensor = arr.reshape(d ** (keep - 1), d, d ** (spec.n - keep),
                         d ** (keep - 1), d, d ** (spec.n - keep))
    return np.trace(np.trace(tensor, axis1=0, axis2=3), axis1=1, axis2=3)


def partial_transpose(rho: DensityMatrix, spec: SystemSpec, part: Bipartition) -> np.ndarray:
    """Transpose the side_a subsystems of the dense matrix; returns a dense Hermitian matrix.

    The reference for analysis.min_pt_eigenvalue, which works from the
    state's parts; rho.entries raises CapacityError over core.DENSE_BYTES_MAX.
    """
    n, d = spec.n, spec.d
    tensor = rho.entries.reshape([d] * (2 * n))
    axes = list(range(2 * n))
    for sub in part.side_a:
        axes[sub - 1], axes[n + sub - 1] = axes[n + sub - 1], axes[sub - 1]
    return tensor.transpose(axes).reshape(spec.dim, spec.dim).copy()


def gibbs_weighted_superposition(spec: SystemSpec) -> np.ndarray:
    """Amplitude vector with weight e^(-beta E_a / 2)/sqrt(Z) on each |a...a>.

    The entangled pure state as a 2^n vector: the reference for the class
    record that families.entangled_pure_state builds instead.
    """
    amp = np.zeros(spec.dim, dtype=complex)
    rep = (spec.dim - 1) // (spec.d - 1)  # linear index of |a...a> is a * rep
    amp[np.arange(spec.d) * rep] = np.sqrt(thermal_params(spec).populations)
    return amp
