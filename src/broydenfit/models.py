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

from .errors import ConfigError, EvaluatorFailure


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations: x of shape (m, d), y of shape (m,), optional weights."""

    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        x = np.array(self.x, dtype=float, copy=True)
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ConfigError(f"x must be (m, d), got shape {x.shape}", key="dataset")
        y = np.atleast_1d(np.array(self.y, dtype=float, copy=True))
        if x.shape[0] != y.shape[0]:
            raise ConfigError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]}", key="dataset"
            )
        if y.size < 1:
            raise ConfigError("dataset must contain at least one row", key="dataset")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ConfigError("dataset values must be finite", key="dataset")
        w = self.weights
        if w is not None:
            w = np.atleast_1d(np.array(w, dtype=float, copy=True))
            if w.shape != y.shape:
                raise ConfigError("weights length must match y", key="weights")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ConfigError("weights must be strictly positive", key="weights")
        for name, arr in (("x", x), ("y", y), ("weights", w)):
            if arr is not None:
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

    kind: str

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

    kind: str = "linear"

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
    kind: str = "polynomial"

    def __post_init__(self):
        if self.degree < 0:
            raise ConfigError("polynomial degree must be >= 0", key="degree")

    def param_count(self, d: int) -> int:
        return self.degree + 1

    def predict(self, x, beta):
        return np.polynomial.polynomial.polyval(self._require_univariate(x), beta)


@dataclass(frozen=True)
class ExponentialDecayModel(AnalyticModel):
    """amplitude * exp(-rate * x)."""

    kind: str = "exponential-decay"

    def param_count(self, d: int) -> int:
        return 2

    def predict(self, x, beta):
        with np.errstate(over="ignore", under="ignore"):
            return beta[0] * np.exp(-beta[1] * self._require_univariate(x))


@dataclass(frozen=True)
class LogisticModel(AnalyticModel):
    """Sigmoid amplitude / (1 + exp(-rate * x))."""

    kind: str = "logistic"

    def param_count(self, d: int) -> int:
        return 2

    def predict(self, x, beta):
        with np.errstate(over="ignore", under="ignore"):
            return beta[0] / (1.0 + np.exp(-beta[1] * self._require_univariate(x)))


MODEL_KINDS = ("linear", "polynomial", "exponential-decay", "logistic")


def make_model(kind: str, degree: int | None = None) -> AnalyticModel:
    if kind == "linear":
        return LinearModel()
    if kind == "polynomial":
        if degree is None:
            raise ConfigError("polynomial model requires a degree", key="degree")
        return PolynomialModel(degree=degree)
    if kind == "exponential-decay":
        return ExponentialDecayModel()
    if kind == "logistic":
        return LogisticModel()
    raise ConfigError(f"unknown model kind {kind!r} (expected one of {MODEL_KINDS})",
                      key="model")


def residuals_from_dataset(
    model: AnalyticModel, data: Dataset, beta: np.ndarray
) -> np.ndarray:
    """observed - predicted, in dataset order.

    Raises:
        EvaluatorFailure: when the prediction is not finite at some datum
            (the message names the first offending row).
    """
    beta = np.asarray(beta, dtype=float)
    expected = model.param_count(data.d)
    if beta.size != expected:
        raise ConfigError(
            f"{model.kind} model over {data.d} variable(s) takes {expected} "
            f"parameters, got {beta.size}",
            key="beta0",
        )
    f = np.asarray(model.predict(data.x, beta), dtype=float)
    if not np.all(np.isfinite(f)):
        bad = int(np.flatnonzero(~np.isfinite(f))[0])
        raise EvaluatorFailure(
            f"{model.kind} model value not finite at datum {bad}",
            category="non_finite",
        )
    return data.y - f


class DatasetEvaluator:
    """Residual evaluator binding a model to a dataset.

    Immutable after construction; usable from any thread.
    """

    def __init__(self, model: AnalyticModel, data: Dataset):
        self.model = model
        self.data = data

    @property
    def n(self) -> int:
        return self.model.param_count(self.data.d)

    def __call__(self, beta: np.ndarray) -> np.ndarray:
        return residuals_from_dataset(self.model, self.data, beta)


class DeterminismCheck:
    """Wrapper that re-runs the first evaluation and compares bitwise.

    Model evaluators are required to be deterministic; this catches, e.g.,
    externally coupled simulations with unseeded randomness early.
    """

    def __init__(self, evaluate):
        self.evaluate = evaluate
        self._checked = False

    def __call__(self, beta: np.ndarray) -> np.ndarray:
        r = np.asarray(self.evaluate(beta), dtype=float)
        if not self._checked:
            again = np.asarray(self.evaluate(np.array(beta, dtype=float)), dtype=float)
            if not np.array_equal(r, again):
                raise EvaluatorFailure(
                    "evaluator returned different residuals for identical parameters",
                    category="nondeterministic",
                )
            self._checked = True
        return r
