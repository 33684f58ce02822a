"""Multi-copy activation of genuine multipartite entanglement.

Core objects: isotropic GHZ states and their GM concurrence, the iterated
Schur-product map with its closed-form k-copy activation thresholds, the
exact biseparable decomposition of two copies of the three-qubit state,
PPT/partition-separability analysis, and the PPT-triangle construction
showing activation from undistillable entanglement.
"""

from .linalg import (
    DensityMatrix,
    TAU_HERM,
    TAU_PSD,
    TAU_TRACE,
    density_matrix_from_json,
    density_matrix_to_json,
    hadamard,
    min_eigenvalue_hermitian,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    tensor,
)
from .states import (
    NotXFormError,
    Partition,
    ProductFormState,
    ProductTerm,
    XFormState,
    ZeroProbabilityError,
    ghz_vector,
    isotropic_ghz,
    isotropic_p_range,
    product_form_partial_trace,
    product_form_project,
    product_form_tensor,
    product_form_to_dense,
    pure_state_dm,
    xform_from_dense,
    xform_pt_spectrum,
    xform_to_dense,
)
from .gme import (
    ActivationReport,
    ThresholdReport,
    ZeroTraceError,
    activation_classification,
    gm_concurrence_isotropic,
    gm_concurrence_xform,
    hadamard_map,
    iterated_hadamard,
    k_copy_threshold,
    partition_separability_threshold,
    single_copy_threshold,
)
from .separability import (
    BisepComponent,
    BisepDecomposition,
    EmbeddingSpec,
    GAMMA1_CORRECTION,
    RectangleViolationError,
    all_bipartitions,
    bisep_validity_interval,
    embed_gamma,
    gamma_base,
    gamma_big_1,
    gamma_big_2,
    ppt_crit,
    pt_min_eig_isotropic,
    rho_diag_closed_form,
    search_gamma1_correction,
    sigma_big,
    two_copy_decomposition,
    two_copy_target,
)
from .boundent import (
    LoccTriangleResult,
    NonPositiveParameterError,
    biseparable_source_state,
    project_triangle_to_D,
    project_wedge_to_D,
    qutrit_ppt_state,
    simulate_locc_triangle,
    triangle_state,
    wedge_state,
    witness_trace_triangle,
    witness_trace_triangle_dense,
    witness_trace_wedge,
    witness_trace_wedge_dense,
    witness_w3,
)

__version__ = "0.1.0"
