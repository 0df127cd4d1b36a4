"""Work extraction from correlated, locally thermal quantum ensembles.

Exact desk-scale toolkit: state families whose marginals are all Gibbs
states at one temperature, passive-state construction and ergotropy,
explicit bias-steering protocol unitaries, entanglement detection by
partial transposition, and the analytic bounds tying them together.
"""

from .analysis import (
    Bipartition,
    EntanglementVerdict,
    bath_extractable_work,
    count_global_energies,
    dicke_mixture_work_formula,
    entanglement_verdict,
    free_energy,
    min_pt_eigenvalue,
    mutual_information_multipartite,
    npt_witness_half_split,
)
from .core import (
    DensityMatrix,
    StructuredUnitary,
    SystemSpec,
    apply_unitary,
    build_hamiltonian,
    partial_trace_to,
    state_eigenvalues,
    von_neumann_entropy,
)
from .errors import (
    CapacityError,
    DomainError,
    ErgokitError,
    InfeasibilityError,
    NumericalError,
    ShapeError,
    UnreachableBiasError,
    UnsupportedError,
    ValidityError,
)
from .families import (
    DiagonalFamilyParams,
    diagonal_state_at_entropy,
    dicke_thermal_mixture,
    entangled_pure_state,
    product_thermal_state,
    separable_optimal_state,
    smallest_shell_for_entropy,
)
from .figures import Figure1Row, figure1_rows
from .passivity import (
    ThermalParams,
    WorkReport,
    beta_for_entropy,
    entropy_constrained_bound,
    ergotropy,
    is_passive,
    passive_state,
    separable_work_limit,
    thermal_entropy,
    thermal_params,
    thermal_state,
)
from .protocols import (
    ProtocolResult,
    bias_after_inversion,
    inversion_sequence_to_bias,
    level_inversion_unitary,
    local_beta_for_bias,
    measure_bias,
    pair_rotation_unitary,
    prepare_locally_thermal,
)

__version__ = "0.1.0"
