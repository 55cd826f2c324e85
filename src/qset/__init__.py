"""Analytical characterization of the quantum correlation set in the CHSH scenario.

Behaviors from two-qubit realizations, extremality and self-testing
certification, reconstruction of realizations from statistics, explicit
non-exposedness witnesses, and independent brute-force oracles.
"""

from .behavior import (
    Behavior,
    BellFunctional,
    CHSH,
    bell_value,
    chsh_all,
    is_local,
    probabilities,
    validate,
)
from .errors import (
    QsetError,
    InvalidBehaviorError,
    NullImageError,
    DegenerateThetaError,
    MarginalUnitError,
    CorrelatorRangeError,
    LocalInputError,
    NonzeroMarginalsError,
    NotSelfTestingError,
    InconsistentGaugeError,
    NoThetaBranchError,
    DegenerateDenominatorError,
    ExcludedSectorError,
    SamplingError,
)
from .extremality import (
    BatchClassification,
    Classification,
    Failure,
    SignPattern,
    Verdict,
    classify,
    classify_many,
    full_alternation_check,
    selftest_conditions_check,
    masanes_check,
    necessary_conditions_check,
    extremality_criterion_check,
)
from .oracles import (
    DeterministicVertex,
    bell_max_q2,
    decomposition_search,
    enumerate_vertices,
    local_membership_lp,
)
from .realization import (
    QubitRealization,
    born_point,
    born_point_matrix,
    canonicalize,
    sample_realization,
)
from .selftest import (
    ReconstructionTrace,
    SelfTestCertificate,
    reconstruct_realization,
    selftest_certificate,
)
from .steering import (
    SteeredCorrelators,
    bob_modified_angles,
    bob_steered_correlators,
    modified_angles,
    steer_vector,
    steered_correlators,
    steered_table,
)
from .symmetry import (
    SymmetryElement,
    apply_symmetry,
    canonical_behavior,
    group_elements,
)
from .witness import (
    FlatnessWitness,
    TangentBasis,
    delta_condition,
    find_witness,
    orthocomplement,
    solve_sector,
    tangent_basis,
)
from .tolerances import TOL_CLAMP, TOL_EQ, TOL_RECON

__version__ = "0.1.0"
