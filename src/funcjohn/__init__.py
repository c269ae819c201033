"""funcjohn: John positions, polar functions, and decompositions of the
identity for log-concave functions."""

from .bump import (
    JohnBumpFunction,
    NormBoundError,
    NormGapRecord,
    bump_from_decomposition,
    norm_gap_probe,
    polar_atom_floor_check,
)
from .decomp import (
    DecompositionResiduals,
    FunctionalJohnDecomposition,
    HullMarginReport,
    InfeasibleWeightsError,
    InvalidDecompositionError,
    decomposition_from_records,
    decomposition_to_records,
    generate_decomposition,
    hull_ball_margin,
    regularize_decomposition,
    verify_decomposition,
    weights_from_points,
)
from .johnsolve import (
    CONSTRAINT_TOL,
    CurveSample,
    InfeasibleProblemError,
    NoContactsError,
    SolveReport,
    SolverOptions,
    extract_and_certify,
    height_curve,
    phi_concavity_violation,
    solve_fixed_height,
    solve_john,
)
from .lcfunc import (
    BallIndicator,
    Bump,
    DimensionMismatchError,
    DivergentIntegralError,
    ExpNorm,
    Gaussian,
    HalfRestriction,
    Height,
    HeightPower,
    ImproperFunctionError,
    LogAffineMajorant,
    LogConcaveFunction,
    NoSolverTargetError,
    PolarHeightPower,
    Positioned,
    Radial,
    UnboundedFunctionError,
    ell_majorant,
    hbar,
    unit_ball_volume,
    zeta,
)
from .polar import (
    PolarAtom,
    improperness_probe,
    log_sup_transform,
    polar_eval,
    polar_eval_many,
    polar_of_ell,
)
from .position import (
    AffinePosition,
    SingularPositionError,
    apply_position,
    identity_position,
    interpolate_positions,
    make_position,
    position_integral,
)
from .verify import (
    DominationCertificate,
    JohnInclusionRecord,
    LownerRecord,
    SandwichRecord,
    check_domination,
    height_below,
    john_inclusion_check,
    lowner_counterexample,
    polar_floor,
    sandwich_construct,
)

__version__ = "0.1.0"
