"""Spatio-temporal Poisson point-process fitting by cubature.

The likelihood integral over the observation window is replaced by a
weighted sum over the data points plus a dummy grid, which turns maximum
likelihood estimation into a weighted Poisson regression solved by an
in-house IRLS engine. External covariates enter through 3D
inverse-distance-weighted smoothing; multitype patterns are fitted on a
replicated scheme.
"""

from .covariates import (
    CoordinateMonomial,
    CovariateFunction,
    CovariateGrid,
    CovariateSample,
    ExternalCovariate,
    IdwConfig,
    Intercept,
    idw_interpolate,
    smooth_to_grid,
)
from .cubature import (
    DEFAULT_RESOLUTION,
    CubatureScheme,
    CubatureWarning,
    GridResolution,
    ReplicatedCubatureScheme,
    approximate_integral,
    build_replicated_scheme,
    build_scheme,
    replicated_responses,
    responses,
)
from .formula import LogLinearExpression, parse_log_linear, parse_term_list
from .glm import (
    DesignMatrix,
    FitError,
    FitResult,
    IrlsConfig,
    PredictorOverflowError,
    RankDeficiencyError,
    fit_irls,
    score_and_fisher,
    weighted_poisson_loglik,
)
from .model import (
    FittedModel,
    MarkFixedEffects,
    ModelSpec,
    build_design,
    fit_multitype,
    fit_stpp,
)
from .patterns import (
    MarkedPointPattern,
    PointPattern,
    SpaceTimePoint,
    Window,
    find_duplicate_points,
    ground_pattern,
    split_by_mark,
)
from .simulate import GENERATOR_ID, SimConfig, simulate_homogeneous, simulate_inhomogeneous

__version__ = "0.1.0"

__all__ = [
    "SpaceTimePoint",
    "Window",
    "PointPattern",
    "MarkedPointPattern",
    "split_by_mark",
    "ground_pattern",
    "find_duplicate_points",
    "GridResolution",
    "DEFAULT_RESOLUTION",
    "CubatureScheme",
    "ReplicatedCubatureScheme",
    "CubatureWarning",
    "build_scheme",
    "build_replicated_scheme",
    "responses",
    "replicated_responses",
    "approximate_integral",
    "CovariateSample",
    "IdwConfig",
    "CovariateGrid",
    "CovariateFunction",
    "Intercept",
    "CoordinateMonomial",
    "ExternalCovariate",
    "idw_interpolate",
    "smooth_to_grid",
    "DesignMatrix",
    "IrlsConfig",
    "FitResult",
    "FitError",
    "RankDeficiencyError",
    "PredictorOverflowError",
    "weighted_poisson_loglik",
    "score_and_fisher",
    "fit_irls",
    "ModelSpec",
    "MarkFixedEffects",
    "FittedModel",
    "build_design",
    "fit_stpp",
    "fit_multitype",
    "SimConfig",
    "GENERATOR_ID",
    "simulate_homogeneous",
    "simulate_inhomogeneous",
    "LogLinearExpression",
    "parse_log_linear",
    "parse_term_list",
    "__version__",
]
