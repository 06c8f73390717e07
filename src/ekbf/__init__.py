"""Extended Kalman-Bucy filtering with provable error envelopes.

Continuous-time nonlinear filtering for contractive signals: model classes
with certified regularity constants, a deterministic simulation engine for
the signal/observation/filter triple, closed-form concentration and
forgetting envelopes, and a Monte Carlo harness that checks the envelopes
against sampled paths.
"""

from .bounds import (
    BoundsReport,
    ConditionReport,
    ProblemConstants,
    bounds_report,
    check_conditions,
    ekf_radius,
    lyapunov_rate,
    moment_bound_xhat,
    problem_constants,
    signal_moment_bound,
    signal_radius,
    varpi,
)
from .dynamics import (
    FilterState,
    PathBundle,
    Stepper,
    TrialRecord,
    deterministic_flow,
    make_path_bundle,
    simulate_coupled,
    trial_rng,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EkbfError,
    InvalidArgument,
    InvalidMatrix,
    ModelNotContractive,
    NotPD,
    NotPSD,
    NotReducible,
    NotStable,
    UnstableStep,
)
from .models import (
    InteractingModel,
    LinearModel,
    ObservationModel,
    QuadraticCubicModel,
    RegularityConstants,
    TransformedModel,
    lipschitz_empirical_check,
    observation_params,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ConditionReport",
    "ConfigError",
    "DimensionMismatch",
    "EkbfError",
    "FilterState",
    "InteractingModel",
    "InvalidArgument",
    "InvalidMatrix",
    "LinearModel",
    "ModelNotContractive",
    "NotPD",
    "NotPSD",
    "NotReducible",
    "NotStable",
    "ObservationModel",
    "PathBundle",
    "ProblemConstants",
    "QuadraticCubicModel",
    "RegularityConstants",
    "Stepper",
    "TransformedModel",
    "TrialRecord",
    "UnstableStep",
    "bounds_report",
    "check_conditions",
    "deterministic_flow",
    "ekf_radius",
    "lipschitz_empirical_check",
    "lyapunov_rate",
    "make_path_bundle",
    "moment_bound_xhat",
    "observation_params",
    "problem_constants",
    "signal_moment_bound",
    "signal_radius",
    "simulate_coupled",
    "trial_rng",
    "varpi",
]
