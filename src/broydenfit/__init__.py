"""Jacobian-free nonlinear least-squares fitting.

Levenberg-Marquardt style damped steps with a Broyden (rank-one secant)
approximation of the residual Jacobian and an Armijo-backtracked line
search; only black-box residual evaluations are required of the model.
"""

from .core import (
    IterationRecord,
    Parameters,
    RunReport,
    RunStatus,
    SolverConfig,
    SolverState,
    armijo_holds,
    assemble_lm_system,
    backtrack,
    broyden_update,
    check_convergence,
    constrain_step,
    max_relative_change,
    objective_value,
    optimize,
    optimize_with_state,
    perturb_initial,
    update_lambda,
    weighted_norm,
)
from .errors import (
    BroydenFitError,
    ConfigError,
    EvaluatorFailure,
    ParseError,
    SingularSystem,
    StagnantStep,
)
from .external import ExternalEvaluator, ExternalEvaluatorSpec, external_evaluate, serve
from .fdiff import FdConfig, brute_force_minimum, fd_jacobian
from .models import (
    AnalyticModel,
    Dataset,
    DatasetEvaluator,
    DeterminismCheck,
    ExponentialDecayModel,
    LinearModel,
    LogisticModel,
    PolynomialModel,
    make_model,
    residuals_from_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticModel",
    "BroydenFitError",
    "ConfigError",
    "Dataset",
    "DatasetEvaluator",
    "DeterminismCheck",
    "EvaluatorFailure",
    "ExponentialDecayModel",
    "ExternalEvaluator",
    "ExternalEvaluatorSpec",
    "FdConfig",
    "IterationRecord",
    "LinearModel",
    "LogisticModel",
    "Parameters",
    "ParseError",
    "PolynomialModel",
    "RunReport",
    "RunStatus",
    "SingularSystem",
    "SolverConfig",
    "SolverState",
    "StagnantStep",
    "armijo_holds",
    "assemble_lm_system",
    "backtrack",
    "broyden_update",
    "brute_force_minimum",
    "check_convergence",
    "constrain_step",
    "external_evaluate",
    "fd_jacobian",
    "make_model",
    "max_relative_change",
    "objective_value",
    "optimize",
    "optimize_with_state",
    "perturb_initial",
    "residuals_from_dataset",
    "serve",
    "update_lambda",
    "weighted_norm",
]
