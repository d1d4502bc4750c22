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

# The least step sizes: a relative one of EPS steps a coordinate by an ulp, and
# an absolute one of TINY * max(h_rel, 1) keeps h_abs / h_rel above 0.
EPS, TINY = float(np.finfo(float).eps), float(np.finfo(float).smallest_subnormal)


@dataclass(frozen=True)
class FdConfig:
    """Differencing scheme and step sizes.

    The per-coordinate step is ``h_rel * max(|beta_j|, h_abs / h_rel)``,
    which reduces to ``h_abs`` at zero coordinates.  Both sizes are finite, and
    their least values (``EPS``, ``TINY``) make every step an ulp or more.
    """

    scheme: str = "central"
    h_rel: float = 1e-6
    h_abs: float = 1e-8

    def __post_init__(self):
        check_fields(self, lambda c: [
            ("scheme", c.scheme in SCHEMES), ("h_rel", EPS <= c.h_rel < np.inf),
            ("h_abs", TINY * max(c.h_rel, 1.0) <= c.h_abs < np.inf)])

    def step(self, beta):
        """The step of each coordinate of ``beta`` (a float or an array)."""
        return self.h_rel * np.maximum(np.abs(beta), self.h_abs / self.h_rel)


def steps_inside(beta, h, lo, hi) -> np.ndarray:
    """``beta + h`` inside the box ``lo`` <= ``beta`` <= ``hi``: a signed step
    that would leave it is reversed where the other side has more room, then
    clipped, so a step of an ulp or more always moves its coordinate.  The
    bounds come first in the clip: on a tie (0.0 against -0.0) numpy's maximum
    and minimum return their second argument, here the point's own."""
    flip = np.where(h > 0, (beta + h > hi) & (hi - beta < beta - lo),
                    (beta + h < lo) & (beta - lo < hi - beta))
    return np.minimum(hi, np.maximum(lo, np.where(flip, beta - h, beta + h)))


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
    probe is clipped to it, and a forward one taken :func:`steps_inside` it.
    The actually-applied step (after rounding of ``beta_j + h`` and the clip)
    is used in the quotient.

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
    # come first in each clip, as in steps_inside.
    h = config.step(beta)
    if config.scheme == "forward":
        base = np.asarray(evaluate(beta.copy()) if base is None else base, dtype=float)
        up, down = steps_inside(beta, h, lo, hi), beta
    else:  # central: both sides of each column are probed, each clipped to the box
        base = None
        up, down = np.minimum(hi, np.maximum(lo, beta + h)), np.maximum(lo, beta - h)

    def probe(j, value):  # each probe point a fresh array
        point = beta.copy()
        point[j] = value
        return np.asarray(evaluate(point), dtype=float)
    for j in range(n):
        try:
            r_up = probe(j, up[j])
            r_down = base if base is not None else probe(j, down[j])
        except EvaluatorFailure as exc:
            raise EvaluatorFailure(
                f"probe for column {j} failed: {exc}", category=exc.category
            ) from exc
        if out is None:
            out = np.empty((r_up.size, n))
        np.divide(r_up - r_down, up[j] - down[j], out=out[:, j])
    return out
