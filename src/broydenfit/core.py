"""Jacobian-free nonlinear least-squares driver.

The optimizer minimizes half the (optionally weighted) sum of squared
residuals using damped Gauss-Newton steps.  The residual Jacobian is never
computed by the model: it is approximated by a rectangular secant matrix
that starts as a unit diagonal pattern and absorbs one rank-one update per
accepted step.  Steps are globalized by a halving line search that enforces
a sufficient-decrease condition on the residual norm, and the damping
factor is adapted multiplicatively on acceptance or rejection.

Only residual evaluations are required of the model: a callable mapping a
parameter vector of length n to a residual vector of fixed length m >= n.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg.blas

from . import fdiff, linalg
from .errors import (
    ConfigError,
    EvaluatorFailure,
    SingularSystem,
    StagnantStep,
    check_residuals,
)

logger = logging.getLogger(__name__)

# Damping factor is confined to this range by the adaptation rule.
LAMBDA_FLOOR = 1e-12
LAMBDA_CAP = 1e12

# Squared step norms below this are treated as stagnation in the secant update.
STAGNANT_SNORM2 = 1e-30

# The driver updates B^T W B along with B, and recomputes it exactly after
# this many secant updates to bound its round-off drift.
GRAM_RECOMPUTE_PERIOD = 10

ResidualEvaluator = Callable[[np.ndarray], np.ndarray]


def _as_bound(bound, n: int, default: float) -> np.ndarray:
    if bound is None:
        return np.full(n, default)
    arr = np.asarray(
        [default if b is None else float(b) for b in np.atleast_1d(bound)], dtype=float
    )
    if arr.shape != (n,):
        raise ConfigError(f"bounds length {arr.shape} does not match n={n}", key="bounds")
    return arr


@dataclass(frozen=True, eq=False)
class Parameters:
    """Parameter vector with optional per-coordinate box bounds.

    ``lower``/``upper`` use -inf/+inf for unbounded sides.  Construction
    validates the bounds (non-degenerate, not NaN) and then the values:
    finite and inside the bounds.  :meth:`with_values` keeps the validated
    bounds and checks only the new values.
    """

    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __init__(self, values, lower=None, upper=None):
        n = np.size(values)
        lo = _as_bound(lower, n, -np.inf)
        hi = _as_bound(upper, n, np.inf)
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ConfigError("bounds must not be NaN", key="bounds")
        if np.any(lo >= hi):
            raise ConfigError("each lower bound must be strictly below its upper bound",
                              key="bounds")
        for name, arr in (("lower", lo), ("upper", hi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        self._set_values(values)

    def _set_values(self, values) -> None:
        values = np.atleast_1d(np.array(values, dtype=float))
        if values.ndim != 1 or values.size < 1:
            raise ConfigError("parameter vector must be 1-D and non-empty", key="beta0")
        if values.shape != self.lower.shape:
            raise ConfigError(f"expected {self.lower.size} parameter values, "
                              f"got {values.size}", key="beta0")
        if not np.all(np.isfinite(values)):
            raise ConfigError("parameter values must be finite", key="beta0")
        if np.any(values < self.lower) or np.any(values > self.upper):
            raise ConfigError("parameter values violate their bounds", key="beta0")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.size

    def with_values(self, values: np.ndarray) -> "Parameters":
        """The same bounds at new ``values``, which must lie inside them."""
        new = object.__new__(Parameters)
        object.__setattr__(new, "lower", self.lower)
        object.__setattr__(new, "upper", self.upper)
        new._set_values(values)
        return new

    def clip(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, self.lower, self.upper)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Parameters)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
        )


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
    max_p_norm:       optional secondary stop on the direction norm (None = off).
    fd_refresh_period: rebuild the secant matrix from finite differences
                      every this many iterations (None = pure secant updates).
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
    max_p_norm: float | None = None
    fd_refresh_period: int | None = None

    def __post_init__(self):
        checks = [
            ("epsilon", self.epsilon > 0),
            ("armijo_c", 0 < self.armijo_c < 1),
            ("alpha_min", 0 < self.alpha_min <= 1),
            ("lambda_init", self.lambda_init >= 0),
            ("lambda_decrease", 0 < self.lambda_decrease < 1),
            ("lambda_increase", self.lambda_increase > 1),
            ("perturbation_rel", self.perturbation_rel > 0),
            ("perturbation_abs", self.perturbation_abs > 0),
            ("max_iterations", self.max_iterations >= 2),
            ("max_p_norm", self.max_p_norm is None or self.max_p_norm > 0),
            ("fd_refresh_period",
             self.fd_refresh_period is None or self.fd_refresh_period >= 1),
        ]
        for key, ok in checks:
            if not ok:
                raise ConfigError(f"invalid value for {key}: {getattr(self, key)!r}",
                                  key=key)


class RunStatus(enum.Enum):
    Converged = "Converged"
    MaxIterations = "MaxIterations"
    LineSearchFloor = "LineSearchFloor"
    EvaluatorFailure = "EvaluatorFailure"


@dataclass(eq=False)
class IterationRecord:
    """One row of the optimization trace.

    ``objective`` is stored as exactly ``0.5 * residual_norm**2`` so it can
    be recomputed from the norm alone.  ``condition`` is the 1-norm
    condition estimate of the solved system, populated only when the run
    has diagnostics enabled.
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
    condition: float | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IterationRecord)
            and self.k == other.k
            and np.array_equal(self.beta, other.beta)
            and (self.residual_norm, self.objective, self.lam, self.alpha,
                 self.p_norm, self.max_rel_change, self.armijo_satisfied,
                 self.condition)
            == (other.residual_norm, other.objective, other.lam, other.alpha,
                other.p_norm, other.max_rel_change, other.armijo_satisfied,
                other.condition)
        )


@dataclass(eq=False)
class RunReport:
    status: RunStatus
    final_beta: Parameters
    final_objective: float
    iterations: list[IterationRecord]
    evaluation_count: int
    failure_reason: str | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RunReport)
            and self.status == other.status
            and self.final_beta == other.final_beta
            and self.final_objective == other.final_objective
            and self.iterations == other.iterations
            and self.evaluation_count == other.evaluation_count
            and self.failure_reason == other.failure_reason
        )


@dataclass
class SolverState:
    """Internal state snapshot returned by :func:`optimize_with_state`.

    ``broyden`` has absorbed every observed secant pair, including the final
    accepted step, so ``broyden @ last_step`` reproduces
    ``last_residual_change`` to round-off.
    """

    broyden: np.ndarray | None = None
    last_step: np.ndarray | None = None
    last_residual_change: np.ndarray | None = None
    residuals: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Elementary operations


def objective_value(r: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Half the (weighted) sum of squared residuals.

    Unit weights reproduce the unweighted value bit for bit (both branches
    evaluate the same dot product).
    """
    r = np.asarray(r, dtype=float)
    if weights is None:
        return 0.5 * float(r @ r)
    w = np.asarray(weights, dtype=float)
    if w.shape != r.shape:
        raise ConfigError(
            f"weights shape {w.shape} does not match residuals shape {r.shape}",
            key="weights",
        )
    return 0.5 * float((w * r) @ r)


def weighted_norm(r: np.ndarray, weights: np.ndarray | None = None) -> float:
    """sqrt(sum w_i r_i^2); the plain 2-norm when weights are absent.

    Both branches share the same dot-product evaluation, so unit weights
    reproduce the unweighted value bit for bit.
    """
    rr = float(r @ r) if weights is None else float((weights * r) @ r)
    return float(np.sqrt(rr))


def _perturbed_coordinate(v: float, lo: float, hi: float, rel: float, ab: float) -> float:
    candidates = (v * (1.0 + rel), v * (1.0 - rel)) if v != 0.0 else (ab, -ab)
    for cand in (*candidates, v + ab, v - ab):
        clipped = min(max(cand, lo), hi)
        if clipped != v:
            return clipped
    raise ConfigError(f"cannot perturb parameter stuck at {v} within [{lo}, {hi}]",
                      key="bounds")


def perturb_initial(beta0: Parameters, config: SolverConfig) -> Parameters:
    """Second starting point for the secant bootstrap.

    Nonzero coordinates move by a relative factor (sign preserving), zero
    coordinates by an absolute offset.  Clipping keeps the result feasible;
    if clipping would undo the move, the opposite direction is used, so every
    coordinate is guaranteed to change.
    """
    values = [
        _perturbed_coordinate(v, lo, hi, config.perturbation_rel, config.perturbation_abs)
        for v, lo, hi in zip(beta0.values, beta0.lower, beta0.upper)
    ]
    return beta0.with_values(np.asarray(values))


def broyden_update(
    b: np.ndarray, s: np.ndarray, t: np.ndarray, out: np.ndarray | None = None,
    gram: np.ndarray | None = None, weights: np.ndarray | None = None,
) -> np.ndarray:
    """Rank-one secant update: B + u s^T with u = (t - B s) / ||s||^2.

    The result maps the step ``s`` to the observed residual change ``t``
    exactly (up to round-off).  It is written to ``out`` (C-contiguous
    float64, possibly ``b`` itself) or else to a new matrix, and returned.
    BLAS ``dger`` adds ``u s^T`` with fused multiply-adds, so the result is
    within an ulp or two of ``b + np.outer(u, s)``, not equal to it.

    A ``gram`` holding ``B^T W B`` (``W = diag(weights)``, or the identity)
    is updated in place to the new matrix's product,
    ``gram + (v s^T + s v^T) + (u^T W u) s s^T`` with ``v = B^T W u``;
    summing the symmetric pair first keeps ``gram`` exactly symmetric.

    Raises:
        StagnantStep: when ``||s||^2`` is below ``STAGNANT_SNORM2``;
            dividing by it would amplify noise rather than add information.
            Neither ``out`` nor ``gram`` is modified then.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    snorm2 = float(s @ s)
    if snorm2 < STAGNANT_SNORM2:
        raise StagnantStep(f"squared step norm {snorm2:.3e} below {STAGNANT_SNORM2:.0e}")
    u = (t - b @ s) / snorm2
    if out is None:
        out = np.array(b, dtype=float, order="C")
    elif not out.flags.c_contiguous or out.dtype != np.float64:
        raise ValueError("out must be a C-contiguous float64 array")
    elif out is not b:
        out[...] = b
    if gram is not None:
        wu = u if weights is None else weights * u
        vs = np.outer(b.T @ wu, s)
        gram += vs + vs.T
        gram += float(u @ wu) * np.outer(s, s)
    # out.T is Fortran-ordered, so dger adds s u^T to it in place.
    scipy.linalg.blas.dger(1.0, s, u, a=out.T, overwrite_a=1)
    return out


def gram_matrix(b: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """``B^T W B`` computed afresh, exactly symmetric.  Factoring through
    ``sqrt(w)`` keeps the weighted product on the symmetric-multiply path of
    the unweighted one, so unit weights reproduce it bit for bit."""
    if weights is not None:
        b = np.sqrt(weights)[:, None] * b
    return b.T @ b


def assemble_lm_system(
    b: np.ndarray, r: np.ndarray, lam: float, weights: np.ndarray | None = None,
    gram: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped normal equations for the direction solve.

    Unweighted: ``(B^T B + lam * diag(B^T B)) p = -B^T r``; with weights the
    Gram matrix and right-hand side take ``B^T W B`` and ``-B^T W r`` forms.
    ``gram`` is ``B^T W B`` when the caller maintains it; otherwise it is
    computed by :func:`gram_matrix`.
    """
    if lam < 0:
        raise ConfigError(f"damping factor must be non-negative, got {lam}", key="lambda")
    w = None if weights is None else np.asarray(weights, dtype=float)
    if gram is None:
        gram = gram_matrix(b, w)
    rhs = -(b.T @ (r if w is None else w * r))
    a = gram.copy()
    idx = np.diag_indices_from(a)
    a[idx] += lam * gram[idx]
    return a, rhs


def constrain_step(beta: Parameters, p: np.ndarray, alpha: float = 1.0) -> float:
    """Largest step length <= ``alpha`` keeping the move inside the half-way
    envelope of the feasible box.

    A coordinate heading toward a finite bound may travel at most half the
    remaining distance to it.  A coordinate sitting exactly on a bound with
    an outward direction contributes no cap (the driver's clip pins it
    there), so the returned value stays positive.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # An infinite room (unbounded side) or a 0/0 (on a bound, p_j = 0)
        # caps nothing: min ignores it or the ``> 0`` mask drops it.
        limits = 0.5 * np.where(p > 0, beta.upper - beta.values,
                                beta.values - beta.lower) / np.abs(p)
        return float(np.min(limits, where=limits > 0, initial=alpha))


def armijo_holds(
    norm_old: float,
    norm_new: float,
    slope: float,
    alpha: float,
    c: float,
) -> bool:
    """Sufficient-decrease test on the residual norm:
    ``norm_new <= norm_old + c * alpha * slope``.

    ``slope`` is the least-squares gradient ``B^T W r_old`` projected on the
    direction; :func:`optimize` takes it as ``-(rhs @ p)`` from the right-hand
    side of the direction solve, once per direction.  It is negative for
    descent directions, so acceptance demands a strict decrease of the norm.
    Both norms are :func:`weighted_norm` values (the metric the direction
    solve targets).
    """
    return norm_new <= norm_old + c * alpha * slope


def max_relative_change(p: np.ndarray, values: np.ndarray) -> float:
    """max_j |p_j| / |beta_j|, with a unit denominator where beta_j == 0."""
    denom = np.where(values != 0.0, np.abs(values), 1.0)
    return float(np.max(np.abs(p) / denom))


def check_convergence(p: np.ndarray, beta: Parameters, config: SolverConfig) -> bool:
    """True when the direction is negligible relative to the parameters.

    Also true under the optional secondary guard ``||p|| < max_p_norm``.
    """
    if max_relative_change(p, beta.values) < config.epsilon:
        return True
    if config.max_p_norm is not None and float(np.linalg.norm(p)) < config.max_p_norm:
        return True
    return False


def update_lambda(lam: float, accepted: bool, config: SolverConfig) -> float:
    """Multiplicative damping adaptation, clamped to [1e-12, 1e12]."""
    if accepted:
        return max(lam * config.lambda_decrease, LAMBDA_FLOOR)
    return min(lam * config.lambda_increase, LAMBDA_CAP)


def backtrack(
    beta: Parameters,
    p: np.ndarray,
    config: SolverConfig,
    evaluate: ResidualEvaluator,
    r_old: np.ndarray,
    slope: float,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray, bool]:
    """Halving line search along ``p`` from ``beta``.

    ``slope`` is the gradient of the least-squares objective at ``r_old``
    projected on ``p`` (see :func:`armijo_holds`); the norm of ``r_old`` is
    computed once here and shared by every trial.

    Starts from the bound-constrained full step and halves until the
    sufficient-decrease test passes or the next halving would drop to the
    ``alpha_min`` floor.  Returns ``(alpha, residuals, accepted)``; when no
    trial passes, the lowest-norm trial is returned with ``accepted=False``
    (ties keep the larger step) and the caller is expected to raise the
    damping factor instead of taking an ascent step.

    A trial whose evaluation fails is treated like a failed decrease test;
    only if every trial fails to evaluate does the failure propagate.  A
    trial whose squared norm overflows to inf fails the test; numpy's
    overflow warnings are suppressed for the whole search, including the
    evaluator's trial calls.
    """
    alpha = constrain_step(beta, p, 1.0)
    best: tuple[float, float, np.ndarray] | None = None  # (norm, alpha, residuals)
    last_failure: EvaluatorFailure | None = None
    with np.errstate(over="ignore"):
        norm_old = weighted_norm(r_old, weights)
        while True:
            trial = beta.clip(beta.values + alpha * p)
            try:
                r_new = evaluate(trial)
            except EvaluatorFailure as exc:
                last_failure = exc
            else:
                norm = weighted_norm(r_new, weights)
                if armijo_holds(norm_old, norm, slope, alpha, config.armijo_c):
                    return alpha, r_new, True
                if best is None or norm < best[0]:
                    best = (norm, alpha, r_new)
            alpha *= 0.5
            if alpha <= config.alpha_min:
                break
    if best is None:
        raise EvaluatorFailure(
            f"every line-search trial failed to evaluate: {last_failure}",
            category=last_failure.category if last_failure else "evaluation",
        ) from last_failure
    return best[1], best[2], False


# ---------------------------------------------------------------------------
# Driver


class _CountingEvaluator:
    """Validates and counts residual evaluations; fixes m on the first call."""

    def __init__(self, fn: ResidualEvaluator):
        self.fn = fn
        self.m: int | None = None
        self.count = 0

    def __call__(self, values: np.ndarray) -> np.ndarray:
        self.count += 1
        r = np.asarray(self.fn(np.array(values, dtype=float)), dtype=float)
        self.m = check_residuals(r, self.m)
        return r


def _resolve_weights(weights, m: int) -> np.ndarray | None:
    if weights is None:
        return None
    if np.isscalar(weights):
        w = np.full(m, float(weights))
    else:
        w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ConfigError(f"expected {m} weights, got shape {w.shape}", key="weights")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ConfigError("weights must be strictly positive and finite", key="weights")
    return w


def as_parameters(beta0, n_params: int | None = None) -> Parameters:
    if isinstance(beta0, Parameters):
        return beta0
    if beta0 is None:
        if n_params is None:
            raise ConfigError("either beta0 or n_params is required", key="beta0")
        return Parameters(np.zeros(n_params))
    return Parameters(beta0)


def optimize(
    evaluate: ResidualEvaluator,
    beta0: Parameters | Sequence[float] | None = None,
    config: SolverConfig | None = None,
    weights=None,
    *,
    n_params: int | None = None,
    fd_config: "fdiff.FdConfig | None" = None,
    on_iteration: Callable[[IterationRecord], None] | None = None,
    diagnostics: bool = False,
) -> RunReport:
    """Fit parameters to minimize the residual sum of squares.

    ``evaluate`` maps an n-vector to an m-vector of residuals (m >= n, fixed
    across the run) or raises :class:`EvaluatorFailure`.  ``beta0`` defaults
    to all zeros (``n_params`` then sizes the problem).  ``weights`` may be a
    scalar or an m-vector of strictly positive per-datum weights.

    The run bootstraps with two evaluations (the start and a small
    perturbation of it), then iterates: secant update of the Jacobian
    approximation, damped direction solve, halving line search, damping
    adaptation, convergence test.  With ``fd_refresh_period`` set in the
    config, the secant matrix is periodically replaced by a finite-difference
    Jacobian (``fd_config`` controls scheme and step sizes).

    Returns a :class:`RunReport`; evaluator problems surface as
    ``status=EvaluatorFailure`` rather than an exception.  With
    ``diagnostics=True`` each record carries a condition estimate of the
    solved system.
    """
    report, _ = _optimize(evaluate, beta0, config, weights, n_params, fd_config,
                          on_iteration, diagnostics, fold_final=False)
    return report


def optimize_with_state(
    evaluate: ResidualEvaluator,
    beta0: Parameters | Sequence[float] | None = None,
    config: SolverConfig | None = None,
    weights=None,
    *,
    n_params: int | None = None,
    fd_config: "fdiff.FdConfig | None" = None,
    on_iteration: Callable[[IterationRecord], None] | None = None,
    diagnostics: bool = False,
) -> tuple[RunReport, SolverState]:
    """Like :func:`optimize` but also returns the final internal state
    (secant matrix, last step pair, final residuals) for diagnostics."""
    return _optimize(evaluate, beta0, config, weights, n_params, fd_config,
                     on_iteration, diagnostics, fold_final=True)


def _optimize(
    evaluate: ResidualEvaluator,
    beta0,
    config: SolverConfig | None,
    weights,
    n_params: int | None,
    fd_config: "fdiff.FdConfig | None",
    on_iteration: Callable[[IterationRecord], None] | None,
    diagnostics: bool,
    fold_final: bool,
) -> tuple[RunReport, SolverState]:
    """The optimization loop.  ``fold_final`` absorbs the last pending step
    pair into the returned secant matrix; only the state needs it, not the
    report."""
    config = config or SolverConfig()
    beta = as_parameters(beta0, n_params)
    n = beta.size
    ev = _CountingEvaluator(evaluate)
    records: list[IterationRecord] = []
    state = SolverState()
    w: np.ndarray | None = None

    def finish(status, reason=None):
        obj = np.inf if state.residuals is None else objective_value(state.residuals, w)
        return (
            RunReport(status, beta, obj, records, ev.count, reason),
            state,
        )

    try:
        r = ev(beta.values)
        state.residuals = r
        perturbed = perturb_initial(beta, config)
        r_pert = ev(perturbed.values)
    except EvaluatorFailure as exc:
        return finish(RunStatus.EvaluatorFailure, f"bootstrap: {exc}")

    m = ev.m
    if m < n:
        raise ConfigError(
            f"under-determined system: {m} residuals for {n} parameters", key="evaluate"
        )
    w = _resolve_weights(weights, m)

    b = np.eye(m, n)
    # B^T W B of b (None: recompute it), and the updates folded into it since.
    gram, since_exact = None, 0
    pending: tuple[np.ndarray, np.ndarray] | None = (
        perturbed.values - beta.values,
        r_pert - r,
    )
    beta, r = perturbed, r_pert
    state.residuals = r
    lam = config.lambda_init
    status = RunStatus.MaxIterations
    reason = None

    for k in range(1, config.max_iterations + 1):
        refresh = (
            config.fd_refresh_period is not None and k % config.fd_refresh_period == 0
        )
        if refresh:
            try:
                b = fdiff.fd_jacobian(ev, beta.values, fd_config)
            except EvaluatorFailure as exc:
                status, reason = RunStatus.EvaluatorFailure, f"iteration {k}: {exc}"
                break
            gram = None
        elif pending is not None:
            if since_exact == GRAM_RECOMPUTE_PERIOD - 1:
                gram = None  # recomputed below instead of updated
            try:
                # b is private to this run (np.eye or fd_jacobian): update in place.
                broyden_update(b, *pending, out=b, gram=gram, weights=w)
                state.last_step, state.last_residual_change = pending
                since_exact += 1
            except StagnantStep as exc:
                logger.warning("iteration %d: secant update skipped (%s)", k, exc)
        pending = None
        if gram is None:
            gram, since_exact = gram_matrix(b, w), 0

        # Solve for the direction, escalating the damping on rank deficiency.
        while True:
            a, rhs = assemble_lm_system(b, r, lam, w, gram)
            try:
                p, cond = (linalg.solve(a, rhs, condition=True) if diagnostics
                           else (linalg.solve(a, rhs), None))
                break
            except SingularSystem as exc:
                if lam >= LAMBDA_CAP:
                    status = RunStatus.LineSearchFloor
                    reason = f"iteration {k}: singular system at damping cap ({exc})"
                    break
                logger.debug("iteration %d: singular system, raising damping", k)
                lam = update_lambda(lam, accepted=False, config=config)
        if status is RunStatus.LineSearchFloor:
            break

        if not np.any(p):
            # Exact stationary point of the local model: nothing to try.
            rn = weighted_norm(r, w)
            rec = IterationRecord(k, beta.values.copy(), rn, 0.5 * rn * rn,
                                  lam, 0.0, 0.0, 0.0, True, cond)
            records.append(rec)
            if on_iteration:
                on_iteration(rec)
            status = RunStatus.Converged
            break

        # rhs = -B^T W r, so the objective's slope along p is -(rhs @ p).
        slope = -float(rhs @ p)
        try:
            alpha, r_new, accepted = backtrack(beta, p, config, ev, r, slope, w)
        except EvaluatorFailure as exc:
            status, reason = RunStatus.EvaluatorFailure, f"iteration {k}: {exc}"
            break

        if accepted:
            new_values = beta.clip(beta.values + alpha * p)
            pending = (new_values - beta.values, r_new - r)
            beta, r = beta.with_values(new_values), r_new
            state.residuals = r
        else:
            # The move is refused, but the best trial still carries secant
            # information; absorbing it corrects the approximation that
            # produced the bad direction.
            trial = beta.clip(beta.values + alpha * p)
            pending = (trial - beta.values, r_new - r)
        lam_next = update_lambda(lam, accepted, config)

        rn = weighted_norm(r, w)
        rec = IterationRecord(
            k=k,
            beta=beta.values.copy(),
            residual_norm=rn,
            objective=0.5 * rn * rn,
            lam=lam,
            alpha=alpha,
            p_norm=float(np.linalg.norm(p)),
            max_rel_change=max_relative_change(p, beta.values),
            armijo_satisfied=accepted,
            condition=cond,
        )
        records.append(rec)
        if on_iteration:
            on_iteration(rec)

        if check_convergence(p, beta, config):
            status = RunStatus.Converged
            break
        if not accepted and lam >= LAMBDA_CAP:
            status = RunStatus.LineSearchFloor
            reason = f"iteration {k}: no sufficient-decrease step at damping cap"
            break
        lam = lam_next

    # Fold the final pair into the secant matrix so diagnostics see every
    # observed (step, residual change).
    if fold_final and pending is not None:
        try:
            broyden_update(b, *pending, out=b)
            state.last_step, state.last_residual_change = pending
        except StagnantStep:
            pass
    state.broyden = b
    return finish(status, reason)
