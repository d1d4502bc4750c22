"""The data types of a run: its start, its configuration, its report.

These are what the file formats and the command line read and write.  This
module needs numpy alone: a process that only parses specs, serves a model
or reads reports (a ``serve-model`` child) never loads the solver in
:mod:`broydenfit.core`, nor scipy with it.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_fields, check_type


def _as_bound(bound, n: int, default: float) -> np.ndarray:
    if bound is None:
        return np.full(n, default)
    if isinstance(bound, (list, tuple)):
        bound = [default if b is None else b for b in bound]
    arr = np.array(check_type(bound, (np.ndarray,), "bounds"))
    if arr.shape != (n,):
        raise ConfigError(f"bounds length {arr.shape} does not match n={n}", key="bounds")
    return arr


def _fields_equal(self, other) -> bool:
    """``==`` of a record: array fields compare by :func:`numpy.array_equal`,
    the others by ``x is y or x == y``, as a tuple compare does."""
    if not isinstance(other, type(self)):
        return False
    for f in dataclasses.fields(self):
        x, y = getattr(self, f.name), getattr(other, f.name)
        equal = np.array_equal(x, y) if isinstance(x, np.ndarray) else (x is y or x == y)
        if not equal:
            return False
    return True


@dataclass(frozen=True, eq=False)
class Parameters:
    """Parameter vector with optional per-coordinate box bounds.

    ``lower``/``upper`` use -inf/+inf (or None) for unbounded sides; all three
    are stored as read-only float64 copies.  Construction validates the bounds
    (non-degenerate, not NaN) and then the values: finite and inside the
    bounds.  :meth:`with_values` builds the same way; a run builds one at its
    start, bootstrap point and end, and carries an array in between.
    """

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, values, lower=None, upper=None):
        values = check_type(values, (np.ndarray,), "beta0")
        n = values.size
        lo = _as_bound(lower, n, -np.inf)
        hi = _as_bound(upper, n, np.inf)
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ConfigError("bounds must not be NaN", key="bounds")
        if (lo >= hi).any():
            raise ConfigError("each lower bound must be strictly below its upper bound",
                              key="bounds")
        values = np.array(values)
        if values.ndim != 1 or values.size < 1:
            raise ConfigError("parameter vector must be 1-D and non-empty", key="beta0")
        if not np.isfinite(values).all():
            raise ConfigError("parameter values must be finite", key="beta0")
        if (values < lo).any() or (values > hi).any():
            raise ConfigError("parameter values violate their bounds", key="beta0")
        for name, arr in (("values", values), ("lower", lo), ("upper", hi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return self.values.size

    def with_values(self, values: np.ndarray) -> "Parameters":
        """The same bounds at new ``values``, which must lie inside them."""
        return Parameters(values, self.lower, self.upper)

    def clip(self, values: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(values, self.lower), self.upper)  # np.clip, bit for bit

    __eq__ = _fields_equal


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the optimization loop.

    epsilon:          relative-change stopping tolerance.
    armijo_c:         sufficient-decrease coefficient, in (0, 1).
    alpha_min:        line-search step-length floor.
    lambda_init:      initial damping factor (>= 0).
    lambda_decrease:  damping multiplier after an accepted step.
    lambda_increase:  damping multiplier after a rejected step.
    perturbation_rel: relative bootstrap perturbation of nonzero parameters.
    perturbation_abs: additive bootstrap perturbation of zero parameters.
    max_iterations:   hard iteration cap.
    fd_refresh_period: also rebuild the secant matrix from finite differences
                      every this many iterations.  Every run rebuilds it
                      after 2 rejected line searches in a row
                      (``core.STALL_REFRESH_REJECTIONS``), so None does not
                      mean pure secant updates.  A central rebuild costs 2n
                      calls.
    """

    epsilon: float = 1e-3
    armijo_c: float = 1e-4
    alpha_min: float = 1e-4
    lambda_init: float = 1e-2
    lambda_decrease: float = 0.1
    lambda_increase: float = 10.0
    perturbation_rel: float = 0.01
    perturbation_abs: float = 0.01
    max_iterations: int = 200
    fd_refresh_period: int | None = None

    def __post_init__(self):
        check_fields(self, lambda c: [
            ("epsilon", c.epsilon > 0),
            ("armijo_c", 0 < c.armijo_c < 1),
            ("alpha_min", 0 < c.alpha_min <= 1),
            ("lambda_init", c.lambda_init >= 0),
            ("lambda_decrease", 0 < c.lambda_decrease < 1),
            ("lambda_increase", c.lambda_increase > 1),
            ("perturbation_rel", c.perturbation_rel > 0),
            ("perturbation_abs", c.perturbation_abs > 0),
            ("max_iterations", c.max_iterations >= 2),
            ("fd_refresh_period", c.fd_refresh_period is None or c.fd_refresh_period >= 1),
        ])


class RunStatus(enum.Enum):
    Converged = "Converged"
    MaxIterations = "MaxIterations"
    LineSearchFloor = "LineSearchFloor"
    EvaluatorFailure = "EvaluatorFailure"


@dataclass(eq=False)
class IterationRecord:
    """One row of the optimization trace.

    ``objective`` is stored as exactly ``0.5 * residual_norm**2`` so it can
    be recomputed from the norm alone.
    """

    k: int
    beta: np.ndarray
    residual_norm: float
    objective: float
    lam: float
    alpha: float
    p_norm: float
    max_rel_change: float
    armijo_satisfied: bool

    __eq__ = _fields_equal


@dataclass(eq=False)
class RunReport:
    status: RunStatus
    final_beta: Parameters
    final_objective: float
    iterations: list[IterationRecord]
    evaluation_count: int
    failure_reason: str | None = None

    __eq__ = _fields_equal


@dataclass
class SolverState:
    """Internal state snapshot returned by :func:`~broydenfit.core.optimize_with_state`.

    ``broyden`` has absorbed the run's final step pair too, and
    ``last_step``/``last_residual_change`` is the last pair it absorbed since
    its last rebuild by finite differences (None if none), so
    ``broyden @ last_step`` reproduces ``last_residual_change`` to round-off.
    """

    broyden: np.ndarray | None = None
    last_step: np.ndarray | None = None
    last_residual_change: np.ndarray | None = None
