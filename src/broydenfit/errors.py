"""Exception types shared across the package, and the residual contract."""

from __future__ import annotations

import numpy as np


class BroydenFitError(Exception):
    """Base class for all package errors."""


class ConfigError(BroydenFitError):
    """A configuration value is invalid or inconsistent.

    ``key`` names the offending field when one can be identified.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ParseError(BroydenFitError):
    """A data file could not be parsed; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class EvaluatorFailure(BroydenFitError):
    """A residual evaluation could not be completed.

    ``category`` is a stable machine-readable tag:

    ==================  =====================================================
    ``spawn``           external process could not be started
    ``process_died``    external process exited before responding
    ``timeout``         external process did not respond within the deadline
    ``malformed_response``  response line violated the wire protocol
    ``length_changed``  residual count differed from the first evaluation
    ``non_finite``      a residual entry was NaN or infinite
    ``evaluation``      the model reported it cannot evaluate at this point
    ``nondeterministic``  repeated evaluation at identical parameters differed
    ==================  =====================================================
    """

    def __init__(self, message: str, category: str = "evaluation"):
        super().__init__(message)
        self.category = category


def check_residuals(r: np.ndarray, m: int | None) -> int:
    """Check one residual vector from a model and return its length.

    ``r`` must be 1-D and non-empty, have the length ``m`` of the first
    response (``None`` before it), and hold only finite entries; otherwise
    :class:`EvaluatorFailure` is raised with the category named in its table.
    """
    if r.ndim != 1 or r.size == 0:
        raise EvaluatorFailure(
            f"evaluator must return a 1-D residual vector, got shape {r.shape}",
            category="evaluation",
        )
    if m is not None and r.size != m:
        raise EvaluatorFailure(
            f"residual length changed from {m} to {r.size}", category="length_changed"
        )
    if not np.all(np.isfinite(r)):
        bad = int(np.flatnonzero(~np.isfinite(r))[0])
        raise EvaluatorFailure(f"non-finite residual at index {bad}", category="non_finite")
    return r.size


class SingularSystem(BroydenFitError):
    """The linear system is singular or numerically rank deficient."""


class StagnantStep(BroydenFitError):
    """A secant update was requested with an (essentially) zero step."""
