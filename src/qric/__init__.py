"""Qudit telecloning and many-to-one remote information concentration:
state algebra, channel factories, generalized Bell measurements, LOCC
protocol runners, and the verification suite.
"""

from .statealg import (
    Cut,
    DensityOperator,
    PureState,
    Register,
    basis_state,
    entropy_across_cut,
    equal_up_to_phase,
    fidelity,
    from_amplitudes,
    overlap,
    partial_trace,
    permute,
    random_qudit,
    reorder,
    tensor,
    tensor_many,
    von_neumann_entropy,
)
from .opsbasis import (
    OccupationVector,
    alpha_coeff,
    bell_state,
    ghz_state,
    phi_state,
    stabilizer_expectation,
    symmetric_state,
    weyl_r,
    weyl_u,
)
from .channels import (
    ChannelSpec,
    beta_weighted_channel,
    channel_labels,
    enumerate_constrained_tuples,
    general_pure_channel,
    ghz_channel,
    load_channel,
    mixed_channel,
    preset_spec,
    product_bell_channel,
    smolin_like,
    telecloning_channel,
)
from .measurement import (
    Branch,
    GbmOutcome,
    gbm_batch,
    gbm_branches,
    swap_identity_check,
)
from .protocols import (
    CloneFamily,
    Leaves,
    clone_state,
    deduce_correction,
    default_ric_registry,
    extract_clone_decomposition,
    ghz_correlated_state,
    run_mm_ghz,
    run_mm_multiqudit,
    run_ric,
    run_telecloning,
    synth_distributed_state,
    teleport_identity_check,
)
from .analysis import (
    FingerprintReport,
    SymmetryReport,
    clone_fidelity_formula,
    compare_fingerprints,
    fingerprint,
    ppt_min_eigenvalue,
    stabilizer_suite,
    symmetry_report,
    unlock_ubes,
    verify_appendix_b,
    verify_appendix_c,
)

__version__ = "0.1.0"
