"""Finite-difference residual Jacobians.

The Jacobian routine is the reference the secant approximation is compared
against (``check-jacobian``) and the source of the optional periodic
refresh.  It works on plain arrays and a residual-evaluator callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, EvaluatorFailure

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
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}", key="scheme")
        if not self.h_rel > 0:
            raise ConfigError("h_rel must be positive", key="h_rel")
        if not self.h_abs > 0:
            raise ConfigError("h_abs must be positive", key="h_abs")

    def step(self, beta_j: float) -> float:
        return self.h_rel * max(abs(beta_j), self.h_abs / self.h_rel)


def fd_jacobian(
    evaluate: Callable[[np.ndarray], np.ndarray],
    beta: Sequence[float],
    config: FdConfig | None = None,
    lower: Sequence[float] | None = None,
    upper: Sequence[float] | None = None,
) -> np.ndarray:
    """Column-wise finite-difference residual Jacobian at ``beta``.

    Central differencing costs two evaluations per column, forward one plus
    a shared base evaluation.  Every probe stays inside the box ``lower`` <=
    ``beta`` <= ``upper`` (unbounded when None): a central probe is clipped
    to it, and a forward probe that would leave it goes to the other side if
    that has more room.  The actually-applied step (after rounding of
    ``beta_j + h`` and the clip) is used in the quotient.
    """
    config = config or FdConfig()
    beta = np.asarray(beta, dtype=float)
    n = beta.size
    lo = np.full(n, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    columns = []
    base = None
    if config.scheme == "forward":
        base = np.asarray(evaluate(beta.copy()), dtype=float)
    for j in range(n):
        h = config.step(beta[j])
        up = beta.copy()
        if (config.scheme == "forward" and beta[j] + h > hi[j]
                and hi[j] - beta[j] < beta[j] - lo[j]):
            h = -h
        up[j] = min(max(beta[j] + h, lo[j]), hi[j])
        try:
            r_up = np.asarray(evaluate(up), dtype=float)
            if config.scheme == "central":
                down = beta.copy()
                down[j] = max(beta[j] - h, lo[j])
                r_down = np.asarray(evaluate(down), dtype=float)
                columns.append((r_up - r_down) / (up[j] - down[j]))
            else:
                columns.append((r_up - base) / (up[j] - beta[j]))
        except EvaluatorFailure as exc:
            raise EvaluatorFailure(
                f"probe for column {j} failed: {exc}", category=exc.category
            ) from exc
    return np.column_stack(columns)
