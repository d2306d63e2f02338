"""hardylab: numerical workbench for truncated vector-valued Hardy spaces.

Coefficient-level functions and multipliers, subspaces stored as
orthonormal matrices with certified invariance defects, model/Beurling-type
constructions, the near-invariance decomposition and its converse, and a
scenario harness that verifies each structural statement at finite
truncation order.
"""

from .errors import (
    CertificationError,
    DimensionMismatchError,
    DomainError,
    InvariantViolationError,
    NotInnerError,
    NotNearlyInvariantError,
    ParseError,
    PreconditionError,
    TruncationOverflowError,
    WorkbenchError,
)
from .funcs import (
    CoeffFn,
    basis_vector,
    flatten,
    make_fn,
    monomial_fn,
    unflatten,
    zero_fn,
)
from .inner import BlaschkeSpec, blaschke_scalar, diag_inner, monomial_inner
from .multipliers import (
    MatSymbol,
    compose,
    multiply,
    multiply_adjoint,
    scalar_symbol,
)
from .nearly import (
    DecompResult,
    almost_invariant_Sstar_check,
    certify_nearly,
    decompose,
    duality_residuals,
    extract_K,
    orthocomplement_membership,
    synthesize_M,
)
from .scenarios import SCENARIOS, ScenarioReport, run_all, run_scenario
from .subspaces import (
    DEFAULT_TOL,
    DefectCertificate,
    Subspace,
    beurling_space,
    complement,
    defect_of,
    degree_slice,
    from_spanning,
    model_space,
    project,
    subspace_distance,
    vanishing_slice,
    wandering,
)

__version__ = "0.1.0"
