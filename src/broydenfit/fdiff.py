"""Finite-difference residual Jacobians.

The Jacobian routine is the reference the secant approximation is compared
against (``check-jacobian``) and the source of the driver's rebuilds of
it, after a stall or periodic, by default forward from the residuals in hand
(n evaluations).  It works on plain arrays and a residual-evaluator callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluatorFailure, check_fields

SCHEMES = ("central", "forward")


@dataclass(frozen=True)
class FdConfig:
    """Differencing scheme and step sizes.

    The per-coordinate step is ``h_rel * max(|beta_j|, h_abs / h_rel)``,
    which reduces to ``h_abs`` at zero coordinates.
    """

    scheme: str = "central"
    h_rel: float = 1e-6
    h_abs: float = 1e-8

    def __post_init__(self):
        check_fields(self, lambda c: [
            ("scheme", c.scheme in SCHEMES), ("h_rel", c.h_rel > 0), ("h_abs", c.h_abs > 0)])

    def step(self, beta):
        """The step of each coordinate of ``beta`` (a float or an array)."""
        return self.h_rel * np.maximum(np.abs(beta), self.h_abs / self.h_rel)


def fd_jacobian(
    evaluate: Callable[[np.ndarray], np.ndarray],
    beta: Sequence[float],
    config: FdConfig | None = None,
    lower: Sequence[float] | None = None,
    upper: Sequence[float] | None = None,
    out: np.ndarray | None = None,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Column-wise finite-difference residual Jacobian at ``beta``.

    Central differencing costs two evaluations per column, forward one plus
    a shared base evaluation, skipped when ``base`` gives the residuals at
    ``beta`` (the central scheme ignores it).  Every probe stays inside the
    box ``lower`` <= ``beta`` <= ``upper`` (unbounded when None): a central
    probe is clipped to it, and a forward probe that would leave it goes to
    the other side if that has more room.  The actually-applied step (after
    rounding of ``beta_j + h`` and the clip) is used in the quotient.

    Each column is written into ``out``, an (m, n) float64 array, as soon as
    it is probed; without ``out`` the array is allocated after the first
    probe.  Returns the array.  A failed probe leaves ``out`` part-written.
    """
    config = config or FdConfig()
    beta = np.asarray(beta, dtype=float)
    n = beta.size
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    # Every step and probe coordinate at once, so the loop only evaluates.  The bounds
    # come first: on a tie (0.0 against -0.0) numpy's maximum and minimum return
    # their second argument, here the probe's own.
    h = config.step(beta)
    if config.scheme == "forward":
        base = np.asarray(evaluate(beta.copy()) if base is None else base, dtype=float)
        h = np.where((beta + h > hi) & (hi - beta < beta - lo), -h, h)
    else:  # central: both sides of each column are probed
        base = None
    up = np.minimum(hi, np.maximum(lo, beta + h))
    down = beta if base is not None else np.maximum(lo, beta - h)
    for j in range(n):
        plus, minus = beta.copy(), beta.copy()  # each probe point a fresh array
        plus[j], minus[j] = up[j], down[j]
        try:
            r_up = np.asarray(evaluate(plus), dtype=float)
            r_down = (base if base is not None else
                      np.asarray(evaluate(minus), dtype=float))
        except EvaluatorFailure as exc:
            raise EvaluatorFailure(
                f"probe for column {j} failed: {exc}", category=exc.category
            ) from exc
        if out is None:
            out = np.empty((r_up.size, n))
        np.divide(r_up - r_down, up[j] - down[j], out=out[:, j])
    return out
