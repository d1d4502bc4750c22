"""Jacobian-free nonlinear least-squares driver.

The optimizer minimizes half the (optionally weighted) sum of squared
residuals using damped Gauss-Newton steps.  The residual Jacobian is never
computed by the model: it is approximated by a rectangular secant matrix
that starts as a unit diagonal pattern and absorbs rank-one updates: each
iteration with a nonzero direction queues the best trial of its line search,
accepted or rejected, and the next iteration absorbs it unless it rebuilds B.
Steps are globalized by a safeguarded quadratic backtracking line search that
enforces a sufficient-decrease condition on the objective, and the damping
factor is adapted multiplicatively on acceptance or rejection.  Bounds are
kept by projection: pinned coordinates leave the solve (:func:`solve_free`).

Only residual evaluations are required of the model: a callable mapping a
parameter vector of length n to a residual vector of fixed length m >= n.
An iteration reads and writes the m x n secant matrix once, one cache-sized
block of rows at a time (:func:`broyden_update`): the rank-one update, the
upkeep of its Gram matrix and the right-hand side of the next solve.

B's state lives in one object, ``_SecantJacobian``: B, its Gram matrix and
the step pair waiting to be absorbed.  Each iteration absorbs the pair, whose
pass also gives the right-hand side, or rebuilds B; the driver then assembles
the damped system itself.  The Gram matrix is computed from B, and so exact,
at the first absorb (after the bootstrap pair) and at each rebuild; in
between, the secant updates carry it.

A secant matrix can stop giving descent directions.  After
``STALL_REFRESH_REJECTIONS`` (2) rejected line searches in a row, the next
iteration rebuilds B in place by finite differences (MINPACK ``hybrd``'s
rule; 2n evaluations with the default central scheme) instead of absorbing
the pair.  A run that never rejects twice in a row never rebuilds.

Weights enter once, at the residual boundary: the run's evaluator returns
whitened residuals ``sqrt(w) * r``, whose plain least-squares problem is the
weighted one, and B starts as ``eye(m, n)`` with ``sqrt(w)``-scaled rows.
The secant update, the normal equations and the line search never see W;
only the reported ``SolverState`` is un-whitened.  Unit weights give
``sqrt(1.0) = 1.0`` and so reproduce an unweighted run bit for bit.
"""

from __future__ import annotations

import functools
import logging
import math
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
    check_type,
)
# The run's data types live apart from the solver, so that what reads or
# writes them alone never imports scipy; they are re-exported here.
from .records import (
    IterationRecord,
    Parameters,
    RunReport,
    RunStatus,
    SolverConfig,
    SolverState,
)

logger = logging.getLogger(__name__)

# Damping factor is confined to this range by the adaptation rule.
LAMBDA_FLOOR = 1e-12
LAMBDA_CAP = 1e12

# Squared step norms below this are treated as stagnation in the secant update.
STAGNANT_SNORM2 = 1e-30

# After this many rejected line searches in a row, the driver rebuilds B by
# finite differences before the next solve (MINPACK hybrd's stall rule).
STALL_REFRESH_REJECTIONS = 2

# broyden_update's row blocks: about this many elements (1 MB, within a core's L2
# cache), in whole multiples of 64 rows, which keep each row of B s unchanged.
SECANT_BLOCK_ELEMENTS = 1 << 17

ResidualEvaluator = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Elementary operations


def weighted_norm(r: np.ndarray) -> float:
    """The 2-norm of whitened residuals ``sqrt(w) * r``, which is the
    weighted norm ``sqrt(sum w_i r_i^2)`` of the raw residuals."""
    return math.sqrt(r @ r)


def _perturbed_coordinate(v: float, lo: float, hi: float, rel: float, ab: float) -> float:
    candidates = (v * (1.0 + rel), v * (1.0 - rel)) if v != 0.0 else (ab, -ab)
    for cand in (*candidates, v + ab, v - ab):
        clipped = min(max(cand, lo), hi)
        if clipped != v:
            return clipped
    # lo < hi, so only round-off can leave every candidate at v
    raise ConfigError(f"cannot perturb parameter {v}: perturbation_rel {rel} and "
                      f"perturbation_abs {ab} are both lost to its rounding",
                      key="perturbation_rel")


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
    gram: np.ndarray | None = None, residuals: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Rank-one secant update: B + u s^T with u = (t - B s) / ||s||^2.

    The result maps the step ``s`` to the observed residual change ``t``
    exactly (up to round-off).  It is written to ``out`` (C-contiguous
    float64, possibly ``b`` itself) or else to a new matrix, and returned.
    BLAS ``dger`` adds ``u s^T`` with fused multiply-adds, so the result is
    within an ulp or two of ``b + np.outer(u, s)``, not equal to it.

    A ``gram`` holding ``B^T B`` is updated in place to the new matrix's
    product, ``gram + (v s^T + s v^T) + (u^T u) s s^T`` with ``v = B^T u``;
    summing the symmetric pair first keeps ``gram`` exactly symmetric.  Its
    round-off, a few ``eps * ||B||_2^2`` per update, adds up across updates.
    Given ``residuals`` r, it returns ``(out, rhs)``, ``rhs = -(B'^T r)`` of
    the updated B' for :func:`assemble_lm_system`.  It is all one pass in
    row blocks (``SECANT_BLOCK_ELEMENTS``): a block gives its rows of ``u``
    and its share of ``v``, takes its rows of the update and then its share
    of ``rhs`` while in cache.  One block makes the unblocked products;
    across blocks, ``v``, ``u^T u`` and ``rhs`` are summed block by block.
    Weights are not its concern: B and the residuals are whitened ones.

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
    if out is None:
        out = np.array(b, dtype=float, order="C")
    elif not out.flags.c_contiguous or out.dtype != np.float64:
        raise ValueError("out must be a C-contiguous float64 array")
    elif out is not b:
        out[...] = b
    m, n = out.shape
    rows = max(64, SECANT_BLOCK_ELEMENTS // n // 64 * 64)
    v, g, uu = None, None, 0.0
    for i in range(0, m, rows):
        bi, ti = out[i:i + rows], t[i:i + rows]
        ri = None if residuals is None else residuals[i:i + rows]
        ui = (ti - bi @ s) / snorm2
        if gram is not None:
            vi = bi.T @ ui
            v = vi if v is None else np.add(v, vi, out=v)
            uu += float(ui @ ui)
        # bi.T is Fortran-ordered, so dger adds s u^T to it in place.
        scipy.linalg.blas.dger(1.0, s, ui, a=bi.T, overwrite_a=1)
        if ri is not None:
            gi = bi.T @ ri
            g = gi if g is None else np.add(g, gi, out=g)
    if gram is not None:
        vs = v[:, None] * s  # np.outer(v, s)
        gram += vs + vs.T
        gram += uu * (s[:, None] * s)
    return out if residuals is None else (out, -g)


def gram_matrix(b: np.ndarray) -> np.ndarray:
    """``B^T B`` computed afresh, exactly symmetric."""
    return b.T @ b


def assemble_lm_system(
    b: np.ndarray, r: np.ndarray, lam: float,
    gram: np.ndarray | None = None, rhs: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped normal equations for the direction solve,
    ``(B^T B + lam * diag(B^T B)) p = -B^T r`` with ``lam >= 0``.

    With whitened ``B = sqrt(W) J`` and ``r = sqrt(W) r_raw`` these are the
    weighted equations ``J^T W J`` and ``-J^T W r_raw``.  ``gram`` is
    ``B^T B`` when the caller maintains it; otherwise it is computed by
    :func:`gram_matrix`.  ``rhs`` is ``-B^T r`` from the pass of
    :func:`broyden_update` when there was one, or else computed here.
    """
    if gram is None:
        gram = gram_matrix(b)
    if rhs is None:
        rhs = -(b.T @ r)
    a = gram.copy()
    a.flat[::a.shape[0] + 1] += lam * gram.diagonal()
    return a, rhs


def constrain_step(x: np.ndarray, box: Parameters, rhs: np.ndarray) -> np.ndarray:
    """The mask of the coordinates of ``x`` that sit on a bound of ``box`` while
    the descent direction ``rhs = -B^T r`` points out of it (Bertsekas 1982)."""
    return ((x == box.lower) & (rhs < 0)) | ((x == box.upper) & (rhs > 0))


def solve_free(a: np.ndarray, rhs: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """The damped step ``p``: 0 on the ``pinned`` coordinates, and on the free
    ones the solve of their own rows and columns of ``a`` (none if all pinned)."""
    if not pinned.any():
        return linalg.solve(a, rhs)
    p, free = np.zeros(rhs.size), ~pinned
    if free.any():
        p[free] = linalg.solve(a[np.ix_(free, free)], rhs[free])
    return p


def armijo_holds(
    norm_old: float,
    norm_new: float,
    slope: float,
    alpha: float,
    c: float,
) -> bool:
    """Sufficient-decrease test on the objective phi = 0.5 * ||r||^2:
    ``0.5 * norm_new**2 <= 0.5 * norm_old**2 + c * alpha * slope``.

    Both norms are :func:`weighted_norm` values of whitened residuals (the
    metric the direction solve targets).  ``slope`` is phi's derivative
    along the direction, ``(B^T r_old) @ p``; :func:`optimize` takes it as
    ``-(rhs @ p)`` from the right-hand side of the direction solve, once
    per direction.  It is negative for descent directions, so acceptance
    demands a strict decrease, and the test does not depend on the unit of
    the residuals.
    """
    return 0.5 * norm_new * norm_new <= 0.5 * norm_old * norm_old + c * alpha * slope


def max_relative_change(p: np.ndarray, values: np.ndarray) -> float:
    """max_j |p_j| / |beta_j|, with a unit denominator where beta_j == 0."""
    denom = np.where(values != 0.0, np.abs(values), 1.0)
    return float((np.abs(p) / denom).max())


def update_lambda(lam: float, accepted: bool, config: SolverConfig) -> float:
    """Multiplicative damping adaptation, clamped to [1e-12, 1e12]; an
    increase starts from at least the floor, so ``lambda_init = 0`` grows."""
    if accepted:
        return max(lam * config.lambda_decrease, LAMBDA_FLOOR)
    return min(max(lam, LAMBDA_FLOOR) * config.lambda_increase, LAMBDA_CAP)


def backtrack(
    x: np.ndarray,
    box: Parameters,
    p: np.ndarray,
    config: SolverConfig,
    evaluate: ResidualEvaluator,
    r_old: np.ndarray,
    slope: float,
) -> tuple[float, np.ndarray, np.ndarray, bool]:
    """Safeguarded quadratic backtracking along ``p`` from the iterate ``x``.

    ``evaluate`` returns whitened residuals and ``r_old`` is the one at
    ``x``.  ``slope`` is the derivative of phi = 0.5 * ||r||^2 at ``r_old``
    along ``p`` (see :func:`armijo_holds`).

    Each trial is ``box.clip(x + alpha * p)``, from ``alpha = 1``: a point
    inside the bounds of the :class:`Parameters` ``box``.  A failed trial is
    followed by the minimiser of the quadratic through phi(0), ``slope`` and
    phi(alpha), clamped to ``[0.1 * alpha, 0.5 * alpha]``
    (Dennis & Schnabel 1983, Alg. A6.3.1), or by ``0.5 * alpha`` when that
    quadratic has no positive curvature or phi(alpha) is not finite.  The
    search stops when the test passes or the next step would drop to the
    ``alpha_min`` floor.  Returns ``(alpha, trial, residuals, accepted)``;
    when no trial passes, the lowest-norm trial is returned with
    ``accepted=False`` (ties keep the larger step) and the caller is
    expected to raise the damping factor instead of taking an ascent step.

    A trial whose evaluation fails is treated like a failed decrease test;
    only if every trial fails to evaluate does the failure propagate.  A
    trial whose squared norm overflows to inf fails the test.  The search
    runs under its caller's ``np.errstate``: :func:`optimize` turns numpy's
    overflow warnings off for the whole run, trial evaluations included.
    """
    alpha = 1.0
    best: tuple | None = None  # (norm, alpha, trial, residuals)
    last_failure: EvaluatorFailure | None = None
    norm_old = weighted_norm(r_old)
    while True:
        trial = box.clip(x + alpha * p)
        try:
            r_new = evaluate(trial)
        except EvaluatorFailure as exc:
            last_failure, norm = exc, np.inf
        else:
            norm = weighted_norm(r_new)
            if armijo_holds(norm_old, norm, slope, alpha, config.armijo_c):
                return alpha, trial, r_new, True
            if best is None or norm < best[0]:
                best = (norm, alpha, trial, r_new)
        # alpha**2 times the quadratic's curvature; inf or NaN without a finite phi
        curv = 0.5 * (norm * norm - norm_old * norm_old) - slope * alpha
        shrink = -0.5 * slope * alpha / curv if 0.0 < curv < np.inf else 0.5
        alpha *= min(max(shrink, 0.1), 0.5)
        if alpha <= config.alpha_min:
            break
    if best is None:
        raise EvaluatorFailure(
            f"every line-search trial failed to evaluate: {last_failure}",
            category=last_failure.category if last_failure else "evaluation",
        ) from last_failure
    return *best[1:], False


# ---------------------------------------------------------------------------
# Driver


class _CountingEvaluator:
    """The residual boundary of a run: validates, counts and whitens each
    evaluation.  The first call fixes m and resolves the weights to
    ``sw = sqrt(w)``; every vector returned, the first included, is
    ``sw * r`` (``r`` itself when unweighted, ``sw`` None)."""

    def __init__(self, fn: ResidualEvaluator, weights=None):
        self.fn = fn
        self.weights = check_type(weights, (float, np.ndarray, type(None)), "weights")
        self.m: int | None = None
        self.sw: np.ndarray | None = None
        self.count = 0

    def __call__(self, values: np.ndarray) -> np.ndarray:
        self.count += 1
        r = np.asarray(self.fn(np.array(values, dtype=float)), dtype=float)
        m = check_residuals(r, self.m)
        if self.m is None:
            self.m, self.sw = m, _resolve_weights(self.weights, m)
        return r if self.sw is None else self.sw * r


class _SecantJacobian:
    """The secant approximation B of the m x n Jacobian of the whitened
    residuals ``sw * r``: B (from ``eye(m, n)`` on the raw residuals, so
    ``sw``-scaled rows), its Gram matrix ``B^T B`` (exact after the first
    :meth:`absorb` and after each :meth:`refresh`, carried by each update in
    between), the ``pending`` step pair ``(s, t)`` and the last pair
    absorbed."""

    def __init__(self, m: int, n: int, sw: np.ndarray | None):
        # private to this run, so updated in place
        self.b = np.eye(m, n) if sw is None else np.eye(m, n) * sw[:, None]
        self.sw = sw
        self.gram: np.ndarray | None = None  # None: the first absorb computes it
        self.pending: tuple[np.ndarray, np.ndarray] | None = None
        self.last: tuple[np.ndarray | None, np.ndarray | None] = (None, None)

    def absorb(self, r: np.ndarray, k: int) -> np.ndarray | None:
        """Rank-one update of B by the pending pair; returns the right-hand
        side ``-B^T r`` at residuals ``r`` that its pass leaves.  A stagnant
        step is skipped, with a warning naming iteration ``k``, and gives None."""
        (s, t), self.pending, rhs = self.pending, None, None
        try:
            _, rhs = broyden_update(self.b, s, t, out=self.b, gram=self.gram, residuals=r)
            self.last = (s, t)
        except StagnantStep as exc:
            logger.warning("iteration %d: secant update skipped (%s)", k, exc)
        if self.gram is None:
            self.gram = gram_matrix(self.b)
        return rhs

    def refresh(self, ev: ResidualEvaluator, x: np.ndarray, box: Parameters,
                fd_config: "fdiff.FdConfig | None") -> None:
        """Rebuild B in place by finite differences at ``x`` in ``box``, and its
        Gram matrix, and drop the pending and last pairs, which B need not satisfy.
        A probe's :class:`EvaluatorFailure` propagates; B, half-written, is None."""
        b, self.b = self.b, None
        self.b = fdiff.fd_jacobian(ev, x, fd_config, box.lower, box.upper, out=b)
        self.gram, self.pending, self.last = gram_matrix(self.b), None, (None, None)

    @np.errstate(over="ignore", invalid="ignore")
    def state(self) -> SolverState:
        """Fold the pending pair into B, so that B has absorbed every
        observed pair, and return B with the last pair it absorbed, both
        un-whitened: they describe the Jacobian of the raw residuals.  All
        None after a failed rebuild."""
        if self.b is None:
            return SolverState()
        if self.pending is not None:
            try:
                broyden_update(self.b, *self.pending, out=self.b)
                self.last = self.pending
            except StagnantStep:
                pass
            self.pending = self.gram = None
        (s, t), b = self.last, self.b
        if self.sw is not None:
            b, t = b / self.sw[:, None], (None if t is None else t / self.sw)
        return SolverState(b, s, t)


def _resolve_weights(weights, m: int) -> np.ndarray | None:
    """``sqrt(w)`` of valid weights (a float or an m-vector), or None."""
    if weights is None:
        return None
    w = np.full(m, weights) if isinstance(weights, float) else weights
    if w.shape != (m,):
        raise ConfigError(f"expected {m} weights, got shape {w.shape}", key="weights")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ConfigError("weights must be strictly positive and finite", key="weights")
    return np.sqrt(w)


def as_parameters(beta0, n_params: int | None = None) -> Parameters:
    """``beta0`` as :class:`Parameters`, or zeros of size ``n_params`` when it
    is None; ``n_params``, where given, must agree with ``beta0``."""
    if beta0 is None:
        if n_params is None:
            raise ConfigError("either beta0 or n_params is required", key="beta0")
        return Parameters(np.zeros(n_params))
    beta = beta0 if isinstance(beta0, Parameters) else Parameters(beta0)
    if n_params is not None and n_params != beta.size:
        raise ConfigError(f"n_params gives {n_params} parameters but the run has "
                          f"{beta.size}", key="n_params")
    return beta


def optimize(
    evaluate: ResidualEvaluator,
    beta0: Parameters | Sequence[float] | None = None,
    config: SolverConfig | None = None,
    weights=None,
    *,
    n_params: int | None = None,
    fd_config: "fdiff.FdConfig | None" = None,
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> RunReport:
    """Fit parameters to minimize the residual sum of squares.

    ``evaluate`` maps an n-vector to an m-vector of residuals (m >= n, fixed
    across the run) or raises :class:`EvaluatorFailure`.  ``beta0`` defaults
    to all zeros of size ``n_params``, which must agree with ``beta0`` when
    both are given.  ``weights`` may be a scalar or an m-vector of strictly
    positive per-datum weights.

    The run bootstraps with two evaluations (the start and a small
    perturbation of it), then iterates: secant update of the Jacobian
    approximation, projected damped direction solve (:func:`constrain_step`),
    backtracking line search clipped to the box, damping adaptation,
    convergence test on the projected direction.  After two rejected line
    searches in a row, and every ``fd_refresh_period`` iterations when the
    config sets it, the secant matrix is replaced by a finite-difference
    Jacobian probed inside the box (``fd_config`` controls scheme and step
    sizes).

    Returns a :class:`RunReport`: ``Converged``, ``MaxIterations``,
    ``EvaluatorFailure`` (raised by an evaluation or by ``on_iteration``) or
    ``LineSearchFloor`` (normal equations not finite, or singular or without
    a decreasing step at the damping cap), the last two with a
    ``failure_reason`` prefixed ``bootstrap:`` or ``iteration k:``.  Only a
    :class:`ConfigError` is raised; numpy's overflow and invalid-value
    warnings are off for the run.
    """
    return _optimize(evaluate, beta0, config, weights, n_params, fd_config, on_iteration)[0]


def optimize_with_state(
    evaluate: ResidualEvaluator,
    beta0: Parameters | Sequence[float] | None = None,
    config: SolverConfig | None = None,
    weights=None,
    *,
    n_params: int | None = None,
    fd_config: "fdiff.FdConfig | None" = None,
    on_iteration: Callable[[IterationRecord], None] | None = None,
) -> tuple[RunReport, SolverState]:
    """Like :func:`optimize` but also returns the final secant matrix and
    the last step pair it absorbed, for inspection (all ``None`` when the
    bootstrap or a rebuild of B by finite differences failed)."""
    report, jac = _optimize(evaluate, beta0, config, weights, n_params, fd_config, on_iteration)
    return report, SolverState() if jac is None else jac.state()


# The config of a run given none: one object, built on first use.
_default_config = functools.cache(SolverConfig)


class _Floor(Exception):
    """Ends a run with ``LineSearchFloor``; the message is the reason."""


@np.errstate(over="ignore", invalid="ignore")
def _optimize(
    evaluate: ResidualEvaluator,
    beta0,
    config: SolverConfig | None,
    weights,
    n_params: int | None,
    fd_config: "fdiff.FdConfig | None",
    on_iteration: Callable[[IterationRecord], None] | None,
) -> tuple[RunReport, _SecantJacobian | None]:
    """The optimization loop.  Returns the report and the run's secant
    Jacobian, or None when the bootstrap failed.  Every stop but the
    convergence ``break`` and the iteration cap goes through the one
    ``except``, which prefixes the reason with ``bootstrap`` or ``iteration k``.
    The iterate ``x`` is an array kept in ``beta``'s box by the line search's
    clip; the report turns it back into :class:`Parameters`."""
    config = config or _default_config()
    beta = as_parameters(beta0, n_params)
    x, n = beta.values, beta.size
    ev = _CountingEvaluator(evaluate, weights)
    records: list[IterationRecord] = []
    r = jac = None
    k = 0
    status, reason = RunStatus.MaxIterations, None
    try:
        r = ev(x)
        if ev.m < n:
            raise ConfigError(f"under-determined system: {ev.m} residuals for {n} "
                              "parameters", key="evaluate")
        x_pert = perturb_initial(beta, config).values
        r_pert = ev(x_pert)
        jac = _SecantJacobian(ev.m, n, ev.sw)
        jac.pending = (x_pert - x, r_pert - r)
        x, r = x_pert, r_pert
        lam = config.lambda_init
        rejections = 0  # rejected line searches in a row since the last rebuild

        for k in range(1, config.max_iterations + 1):
            stalled = rejections >= STALL_REFRESH_REJECTIONS
            period = config.fd_refresh_period
            if stalled or (period and k % period == 0):
                if stalled:
                    logger.debug("iteration %d: %d rejected line searches in a row, "
                                 "rebuilding B by finite differences", k, rejections)
                jac.refresh(ev, x, beta, fd_config)
                rhs, rejections = None, 0
            else:
                rhs = jac.absorb(r, k)

            # The projected direction; rank deficiency escalates the damping.
            while True:
                a, rhs = assemble_lm_system(jac.b, r, lam, jac.gram, rhs)
                try:
                    p = solve_free(a, rhs, constrain_step(x, beta, rhs))
                    break
                except ValueError as exc:  # inf or NaN: no damping makes it finite
                    raise _Floor(f"non-finite normal equations ({exc})")
                except SingularSystem as exc:
                    if lam >= LAMBDA_CAP:
                        raise _Floor(f"singular system at damping cap ({exc})")
                    logger.debug("iteration %d: singular system, raising damping", k)
                    lam = update_lambda(lam, accepted=False, config=config)

            if p.any():  # rhs = -B^T r, so the objective's slope along p is -(rhs @ p)
                alpha, trial, r_new, accepted = backtrack(x, beta, p, config, ev, r,
                                                          -float(rhs @ p))
                # A refused move's best trial still carries secant information;
                # absorbing it corrects the approximation that produced it.
                jac.pending = (trial - x, r_new - r)
                if accepted:
                    x, r = trial, r_new
            else:  # a stationary point of the projected model: nothing to try
                alpha, accepted = 0.0, True

            rn = weighted_norm(r)
            rec = IterationRecord(
                k=k,
                beta=x.copy(),
                residual_norm=rn,
                objective=0.5 * rn * rn,
                lam=lam,
                alpha=alpha,
                p_norm=math.sqrt(p @ p),  # np.linalg.norm(p)
                max_rel_change=max_relative_change(p, x),
                armijo_satisfied=accepted,
            )
            records.append(rec)
            if on_iteration:
                on_iteration(rec)

            if rec.max_rel_change < config.epsilon:
                status = RunStatus.Converged
                break
            if not accepted and lam >= LAMBDA_CAP:
                raise _Floor("no sufficient-decrease step at damping cap")
            lam = update_lambda(lam, accepted, config)
            rejections = 0 if accepted else rejections + 1
    except (EvaluatorFailure, _Floor) as exc:
        status = (RunStatus.LineSearchFloor if isinstance(exc, _Floor)
                  else RunStatus.EvaluatorFailure)
        reason = f"{f'iteration {k}' if k else 'bootstrap'}: {exc}"

    rn = np.inf if r is None else weighted_norm(r)
    report = RunReport(status, beta.with_values(x), 0.5 * rn * rn, records, ev.count, reason)
    return report, jac
