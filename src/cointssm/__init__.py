"""Cointegrated continuous-time linear state-space / MCARMA models.

Construction, canonical forms, cointegration characterization, exact
discretization, Levy-driven simulation, steady-state Kalman filtering and
the discrete-time error correction decomposition.
"""

from . import matops
from .cointegration import (
    CointReport,
    check_cointegration,
    cointegration_space,
    integrate_by_integration,
    integrate_by_ma_lift,
    pstar_polynomial,
)
from .ecf import (
    EcfDecomposition,
    StructuralCheckReport,
    WhitenessReport,
    ecf_residuals,
    factor_alpha_beta,
    innovations_alt_rep,
    k_at_one,
    ma_and_ktilde_coeffs,
    structural_check,
    transfer_eval,
    whiteness_diagnostic,
)
from .errors import (
    CointegrationRankError,
    CointSSMError,
    ComputationError,
    ConditioningError,
    ConvergenceError,
    DimensionError,
    MinimalityError,
    ModelInputError,
    MultiplicityError,
    NumericError,
    RankError,
    StabilityError,
    ValidationError,
)
from .kalman import KalmanSolution, check_filtered_controllability, filter_innovations, solve_steady_state
from .model import (
    CointCanonicalForm,
    LevySpec,
    LevyValidationReport,
    McarmaModel,
    StateSpaceModel,
    assemble_from_canonical,
    validate_levy,
)
from .moments import SampledModel, cov_continuous, cov_sampled, discretize, mean
from .realization import (
    MinimalityReport,
    canonicalize,
    controllability_matrix,
    decoupled_minimality_check,
    mcarma_to_ss,
    minimality_report,
    observability_matrix,
    ss_to_mcarma,
    transfer_function,
)
from .simulate import (
    FirstDifference,
    PathSet,
    first_difference,
    simulate_exact_gaussian,
    simulate_gaussian_ensemble,
)

__version__ = "0.1.0"
