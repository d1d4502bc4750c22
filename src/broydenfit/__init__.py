"""Jacobian-free nonlinear least-squares fitting.

Levenberg-Marquardt style damped steps with a Broyden (rank-one secant)
approximation of the residual Jacobian and an Armijo-backtracked line
search; only black-box residual evaluations are required of the model.

The names below are the public API that the README documents.  Solver
internals stay importable from their modules (``broydenfit.core``,
``broydenfit.linalg``, ``broydenfit.fdiff``, ``broydenfit.external``).
"""

from .core import (
    IterationRecord,
    Parameters,
    RunReport,
    RunStatus,
    SolverConfig,
    SolverState,
    optimize,
    optimize_with_state,
)
from .errors import BroydenFitError, ConfigError, EvaluatorFailure, ParseError
from .external import ExternalEvaluator, ExternalEvaluatorSpec
from .fdiff import FdConfig
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
    "SolverConfig",
    "SolverState",
    "make_model",
    "optimize",
    "optimize_with_state",
]
