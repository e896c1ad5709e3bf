"""Solver and hypothesis checkers for one-dimensional Dirichlet problems

    (Phi(k(t) x'))' = f(t, x, x'),   x(0) = nu1, x(T) = nu2,

where Phi need only be strictly monotone on a branch around the reference
slope, not globally.  The package also continues such problems to the
half-line by solving on growing intervals and checking the tail gaps.
"""

from .errors import (
    BetaBracketError,
    BranchError,
    BranchNotFoundError,
    CompatibilityError,
    ConfigError,
    DegenerateExponentError,
    DomainError,
    EnvelopeError,
    ExpressionError,
    ImageDomainError,
    InvalidInputError,
    MeshMismatchError,
    PhibvpError,
    RhsEvaluationError,
    WrongCorollaryError,
)
from .grid import (
    GridFunction,
    Mesh,
    cumulative_integral,
    lp_norm,
)
from .operators import (
    OPERATOR_CATALOG,
    InverseStart,
    MonotoneBranch,
    PhiOperator,
    find_branch,
    hint_branch,
    make_operator,
    partial_inverse,
    partial_inverse_array,
)
from .problem import (
    WEIGHT_CATALOG,
    BvpProblem,
    DerivedScalars,
    Envelopes,
    Rhs,
    Weight,
    constant_rhs,
    constant_weight,
    derive_scalars,
    envelopes,
    make_problem,
    make_weight,
    one_plus_t_squared_weight,
    sqrt_t_weight,
    zero_rhs,
)
from .solver import (
    BetaEquation,
    GStep,
    IterationConfig,
    SolveReport,
    SolverKernel,
    VerificationRecord,
    g_map,
    solve,
    truncated_rhs,
    verify,
)
from .halfline import (
    DEFAULT_SCHEDULE,
    HalflineProblem,
    HalflineScalars,
    HeteroclinicReport,
    IntervalRun,
    extend_by_nu2,
    halfline_integral,
    k_mass_upto,
    psi_mass,
    recip_mass,
    solve_halfline,
)
from .hypotheses import (
    CheckItem,
    ExampleCondition,
    HypothesisReport,
    check_corollary_singular,
    check_corollary_surjective,
    check_halfline,
    check_halfline_odd,
    check_theorem1,
    example_condition,
    plaplacian_bound,
    plaplacian_maximizer,
)
from .expressions import CompiledExpression, compile_expression
from .config import (
    ConfigDoc,
    ProblemConfig,
    emit_config,
    load_problem_config,
    parse_config,
    read_config,
    with_overrides,
)

__version__ = "0.1.0"
