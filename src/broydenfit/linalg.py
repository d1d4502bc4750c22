"""Dense symmetric linear solves for the damped normal equations.

The n x n systems from the step assembly are symmetric, positive
semi-definite plus damping, and small.  LAPACK's pivoted LU (``dgetrf``,
called directly) factors each once, and the solve (``dgetrs``) reuses the
factor.  LU rather than Cholesky: an undamped system is only semi-definite,
where Cholesky can fail on round-off before the pivot test below judges it.
Callers rely on a small relative residual for well-conditioned inputs, and
on :class:`SingularSystem` instead of a garbage solution when a pivot
collapses."""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import SingularSystem

# A pivot this far below the largest one is treated as an exact zero.
PIVOT_RTOL = 1e-14


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for a square symmetric ``a``.

    Raises:
        ValueError: if ``a`` or ``b`` holds an infinity or a NaN.
        SingularSystem: if a pivot falls below ``PIVOT_RTOL`` times the
            largest pivot magnitude (numerically rank deficient).
    """
    if not np.isfinite(a := np.asarray(a, dtype=float)).all():
        raise ValueError("array must not contain infs or NaNs")
    # An exact zero pivot (info > 0) fails the threshold check below.
    lu, piv, _ = lapack.dgetrf(a)
    pivots = np.abs(lu.diagonal()).tolist()
    largest = max(pivots, default=0.0)
    if largest == 0.0 or min(pivots) < PIVOT_RTOL * largest:
        raise SingularSystem(
            f"pivot ratio {0.0 if largest == 0.0 else min(pivots) / largest:.3e} "
            f"below {PIVOT_RTOL:.0e}"
        )
    if not np.isfinite(b := np.asarray(b, dtype=float)).all():
        raise ValueError("array must not contain infs or NaNs")
    x, _ = lapack.dgetrs(lu, piv, b)
    if not np.isfinite(x).all():
        raise SingularSystem("solution overflowed; system effectively singular")
    return x
