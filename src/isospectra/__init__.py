"""Isospectral matrices, zero identities, and solvable zero dynamics for six
special polynomial families (plus the Jacobi specialization)."""

from .errors import (
    BranchPoint,
    CardinalityMismatch,
    Collision,
    DegenerateInput,
    DivideByZeroVariable,
    InvalidParameters,
    IsospectraError,
    NonConvergence,
    RepeatedZeros,
    SingularA,
    SingularDenominator,
    SingularSample,
)
from .families import (
    Family,
    FamilySpec,
    build_polynomial,
    closed_form_spectrum,
    compute_zeros,
    defining_equation_residual,
    jacobi_to_ghyp,
    lift_zero_variables,
    make_spec,
    max_defining_residual,
    validate_spec,
)
from .matrices import (
    IsospectralMatrix,
    build_matrix,
    identity_residual,
    verify_matrix,
)
from .dynamics import (
    CSystem,
    TrajectoryRecord,
    algebraic_trajectory,
    c_system,
    equilibrium_residual,
    evolve_compare,
    integrate,
    linearization_matrix,
    nonlinear_rhs,
    to_dynamics_variable,
)
from .numeric import (
    Dual,
    ZeroSet,
    matrix_eigenvalues,
    multiset_match,
    pochhammer,
    poly_roots,
    q_pochhammer,
)

__version__ = "0.1.0"
