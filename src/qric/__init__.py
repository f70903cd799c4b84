"""Qudit telecloning and many-to-one remote information concentration:
state algebra, channel factories, generalized Bell measurements, LOCC
protocol runners, and the verification suite.
"""

from .statealg import (
    Cut,
    DensityOperator,
    PureState,
    Register,
    entropy_across_cut,
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
    alpha_coeff,
    bell_state,
    weyl_r,
    weyl_u,
)
from .channels import (
    BellMixture,
    ChannelSpec,
    beta_weighted_channel,
    channel_labels,
    enumerate_constrained_tuples,
    general_pure_channel,
    ghz_channel,
    load_channel,
    preset_spec,
    product_bell_channel,
    telecloning_channel,
)
from .measurement import (
    Branch,
    GbmOutcome,
    gbm_branches,
)
from .protocols import (
    CloneFamily,
    Leaves,
    clone_state,
    deduce_correction,
    extract_clone_decomposition,
    ghz_correlated_state,
    run_mm_ghz,
    run_mm_multiqudit,
    run_ric,
    run_telecloning,
    synth_distributed_state,
)
from .analysis import (
    FingerprintReport,
    SymmetryReport,
    clone_fidelity_formula,
    compare_fingerprints,
    fingerprint,
    ppt_min_eigenvalue,
    stabilizer_suite,
    swap_identity_check,
    symmetry_report,
    teleport_identity_check,
    unlock_ubes,
    verify_appendix_b,
    verify_appendix_c,
)

__version__ = "0.1.0"
