"""Dense references that the package's structured paths are tested against."""

import numpy as np

from ergokit import Bipartition, DensityMatrix, SystemSpec


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
