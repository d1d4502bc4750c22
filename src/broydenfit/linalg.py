"""Dense symmetric linear solves for the damped normal equations.

The n x n systems from the step assembly are symmetric, positive
semi-definite plus damping, and small.  LAPACK's pivoted LU (``dgetrf``,
called directly) factors each once; the solve (``dgetrs``) and the optional
condition estimate (``dgecon``) reuse the factor.  LU rather than Cholesky
keeps scaled-identity systems exact.  Callers rely on a small relative
residual for well-conditioned inputs, and on :class:`SingularSystem` instead
of a garbage solution when a pivot collapses."""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import SingularSystem

# A pivot this far below the largest one is treated as an exact zero.
PIVOT_RTOL = 1e-14


def _factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU-factor ``a``, raising SingularSystem on a collapsed pivot."""
    a = np.asarray_chkfinite(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # An exact zero pivot (info > 0) fails the threshold check below.
    lu, piv, _ = lapack.dgetrf(a)
    pivots = np.abs(lu.diagonal()).tolist()
    largest = max(pivots, default=0.0)
    if largest == 0.0 or min(pivots) < PIVOT_RTOL * largest:
        raise SingularSystem(
            f"pivot ratio {0.0 if largest == 0.0 else min(pivots) / largest:.3e} "
            f"below {PIVOT_RTOL:.0e}"
        )
    return lu, piv


def _condition(a: np.ndarray, lu: np.ndarray) -> float:
    rcond, _ = lapack.dgecon(lu, np.abs(a).sum(axis=0).max(), norm="1")
    return float("inf") if rcond == 0.0 else 1.0 / rcond


def solve(a: np.ndarray, b: np.ndarray, condition: bool = False):
    """Solve ``a @ x = b`` for symmetric ``a``.

    Returns ``x``, or ``(x, cond)`` with ``condition=True``, where ``cond``
    is :func:`condition_estimate` taken from the same factor.

    Raises:
        SingularSystem: if a pivot falls below ``PIVOT_RTOL`` times the
            largest pivot magnitude (numerically rank deficient).
    """
    lu, piv = _factor(a)
    x, _ = lapack.dgetrs(lu, piv, np.asarray_chkfinite(b, dtype=float))
    if not np.isfinite(x).all():
        raise SingularSystem("solution overflowed; system effectively singular")
    return (x, _condition(a, lu)) if condition else x


def condition_estimate(a: np.ndarray) -> float:
    """1-norm condition number of ``a``; ``inf`` when singular.

    LAPACK's ``dgecon`` estimate of ||a||_1 * ||a^-1||_1 from the LU factor:
    at most the true value (up to round-off), and usually equal to it.
    """
    try:
        lu, _ = _factor(a)
    except SingularSystem:
        return float("inf")
    return _condition(a, lu)
