"""Exact invariants of cohomological representations of U(a,b).

The package computes, in exact half-integer arithmetic: the partition-pair
classification of standard theta-stable parabolic subalgebras, the
attached Arthur-parameter restrictions and infinitesimal characters,
lowest K-types, packets, the theta-lift source construction with its four
exact verification checks, and convergence certificates, found by a
backward walk with no choices or generated forward for a whole frame.
"""

from .halfint import CharMultiset, Weight, format_twice, twice_of
from .partitions import (
    FrameError,
    FramedPair,
    IncompatiblePairError,
    Partition,
    complement,
    conjugate,
    enumerate_compatible,
    is_compatible,
    skew_cells,
)
from .parabolic import (
    AlignmentError,
    DominanceError,
    LambdaCharacter,
    ThetaStableAlgebra,
    algebra_from_pair,
    blocks_from_dominant,
    cohomological_degree,
    degree_twice,
    delta_u_p,
    enumerate_packet,
    enumerate_standard,
    inf_char_aq,
    lowest_k_type,
    partitions_from_blocks,
    two_rho_up,
)
from .arthur import (
    ChiPair,
    ParameterRestriction,
    ParityError,
    inf_char_param,
    m_coeffs,
    parity_check,
    psi_lambda_q,
    theta_lift_param,
    twist,
)
from .thetalift import (
    HoweBoundError,
    LiftDatum,
    LiftReport,
    build_source,
    full_report,
    howe_type_map,
    select_r0,
    verify_inf_char,
    verify_k_type,
    verify_min_degree,
    verify_parameter_identity,
)
from .convergence import (
    AtlasRow,
    ChainStep,
    ConvergenceCertificate,
    atlas,
    enumerate_convergent,
    is_convergent,
    predecessor,
    validate_certificate,
)

__version__ = "0.1.0"
