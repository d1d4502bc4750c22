"""Residual evaluators built from analytic models and datasets.

A model predicts the dependent variable from the independent ones and a
parameter vector; residuals follow the ``observed - predicted`` convention
throughout the package (the sign of the gradient depends on it).  The
built-in model set spans linear and nonlinear, well- and ill-conditioned
fitting regimes and doubles as the test corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_fields, check_residuals, check_type


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations: x of shape (m, d), y of shape (m,), optional weights."""

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        check_fields(self)
        x, y, w = self.x, self.y, self.weights
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ConfigError(f"x must be (m, d), got shape {x.shape}", key="dataset")
        if y.ndim != 1 or x.shape[0] != y.size:
            raise ConfigError(f"x has {x.shape[0]} rows but y has shape {y.shape}",
                              key="dataset")
        if y.size < 1:
            raise ConfigError("dataset must contain at least one row", key="dataset")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ConfigError("dataset values must be finite", key="dataset")
        if w is not None and w.shape != y.shape:
            raise ConfigError("weights length must match y", key="weights")
        if w is not None and not (np.all(np.isfinite(w)) and np.all(w > 0)):
            raise ConfigError("weights must be strictly positive", key="weights")
        for name, arr in (("x", x), ("y", y), ("weights", w)):
            if arr is not None:
                arr = np.array(arr)  # a copy, which is then read-only
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.x.shape[1]


class AnalyticModel:
    """Base for the built-in model set; subclasses define the prediction."""

    kind: str  # a class constant of each subclass, not a field

    def param_count(self, d: int) -> int:
        raise NotImplementedError

    def predict(self, x: np.ndarray, beta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _require_univariate(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != 1:
            raise ConfigError(
                f"{self.kind} model expects one independent variable, got {x.shape[1]}",
                key="dataset",
            )
        return x[:, 0]


@dataclass(frozen=True)
class LinearModel(AnalyticModel):
    """Intercept plus a slope per independent variable."""

    kind = "linear"

    def param_count(self, d: int) -> int:
        return d + 1

    def predict(self, x, beta):
        f = x @ beta[1:]  # a fresh array, so the intercept is added in place
        f += beta[0]
        return f


@dataclass(frozen=True)
class PolynomialModel(AnalyticModel):
    """Univariate polynomial; degree 0 is the constant model."""

    degree: int = 1
    kind = "polynomial"

    def __post_init__(self):
        check_fields(self)
        if self.degree < 0:
            raise ConfigError("polynomial degree must be >= 0", key="degree")

    def param_count(self, d: int) -> int:
        return self.degree + 1

    def predict(self, x, beta):
        x = self._require_univariate(x)
        f = x * 0.0 + beta[-1]  # numpy polyval's Horner recurrence, in place
        for c in beta[-2::-1]:
            f *= x
            f += c
        return f


@dataclass(frozen=True)
class ExponentialDecayModel(AnalyticModel):
    """amplitude * exp(-rate * x)."""

    kind = "exponential-decay"

    def param_count(self, d: int) -> int:
        return 2

    def predict(self, x, beta):
        with np.errstate(over="ignore", under="ignore"):
            return beta[0] * np.exp(-beta[1] * self._require_univariate(x))


@dataclass(frozen=True)
class LogisticModel(AnalyticModel):
    """Sigmoid amplitude / (1 + exp(-rate * x))."""

    kind = "logistic"

    def param_count(self, d: int) -> int:
        return 2

    def predict(self, x, beta):
        with np.errstate(over="ignore", under="ignore"):
            return beta[0] / (1.0 + np.exp(-beta[1] * self._require_univariate(x)))


_MODELS = {model.kind: model for model in (LinearModel, PolynomialModel,
                                          ExponentialDecayModel, LogisticModel)}
MODEL_KINDS = tuple(_MODELS)


def make_model(kind: str, degree: int | None = None) -> AnalyticModel:
    """The built-in model named ``kind``; only the polynomial takes a ``degree``."""
    check_type(degree, (int, type(None)), "degree")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(f"unknown model kind {kind!r} (expected one of {MODEL_KINDS})",
                          key="model")
    if (degree is None) == (kind == "polynomial"):  # a degree for the polynomial alone
        raise ConfigError(f"{kind} model {'requires a' if degree is None else 'takes no'} "
                          "degree", key="degree")
    return _MODELS[kind]() if degree is None else PolynomialModel(degree=degree)


def residuals_from_dataset(
    model: AnalyticModel, data: Dataset, beta: np.ndarray
) -> np.ndarray:
    """observed - predicted, in dataset order.

    Raises:
        EvaluatorFailure: when a residual is not finite
            (:func:`~broydenfit.errors.check_residuals` names the first).
    """
    beta = np.asarray(beta, dtype=float)
    expected = model.param_count(data.d)
    if beta.size != expected:
        raise ConfigError(f"{model.kind} model over {data.d} variable(s) takes "
                          f"{expected} parameters, got {beta.size}", key="beta0")
    r = data.y - np.asarray(model.predict(data.x, beta), dtype=float)
    # A run checks again at its boundary; outside one (serve-model, the FD
    # Jacobian of check-jacobian) this is the only check.
    check_residuals(r, data.m)
    return r


class DatasetEvaluator:
    """Residual evaluator binding a model to a dataset.

    Immutable after construction; usable from any thread.
    """

    def __init__(self, model: AnalyticModel, data: Dataset):
        self.model = model
        self.data = data

    def __call__(self, beta: np.ndarray) -> np.ndarray:
        return residuals_from_dataset(self.model, self.data, beta)
