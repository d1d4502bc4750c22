"""Jacobian-free nonlinear least-squares fitting.

Levenberg-Marquardt style damped steps with a Broyden (rank-one secant)
approximation of the residual Jacobian and an Armijo-backtracked line
search; only black-box residual evaluations are required of the model.

The names below are the public API that the README documents.  Solver
internals stay importable from their modules (``broydenfit.core``,
``broydenfit.linalg``, ``broydenfit.fdiff``, ``broydenfit.external``).

``optimize`` and ``optimize_with_state`` load ``broydenfit.core``, and
scipy with it, on first access (PEP 562), so a process that never solves,
such as a ``serve-model`` child, never pays for that import.
"""

from .errors import BroydenFitError, ConfigError, EvaluatorFailure, ParseError
from .external import ExternalEvaluator, ExternalEvaluatorSpec
from .fdiff import FdConfig
from .models import (
    AnalyticModel,
    Dataset,
    DatasetEvaluator,
    ExponentialDecayModel,
    LinearModel,
    LogisticModel,
    PolynomialModel,
    make_model,
)
from .records import (
    IterationRecord,
    Parameters,
    RunReport,
    RunStatus,
    SolverConfig,
    SolverState,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticModel",
    "BroydenFitError",
    "ConfigError",
    "Dataset",
    "DatasetEvaluator",
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

_SOLVER = ("optimize", "optimize_with_state")


def __getattr__(name):
    if name in _SOLVER:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SOLVER})
