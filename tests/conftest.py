import itertools
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import broydenfit
from broydenfit import (
    ConfigError,
    Dataset,
    DatasetEvaluator,
    ExponentialDecayModel,
    LinearModel,
    LogisticModel,
    PolynomialModel,
)

# Child processes (``python -m broydenfit``) import the same copy as the tests.
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(broydenfit.__file__).resolve().parents[1])]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


# Any JSON value, small: what a file or a wire message can carry.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def analytic_jacobian(model, data: Dataset, beta: np.ndarray) -> np.ndarray:
    """Hand-coded residual Jacobian d(y - f)/d(beta) for the built-in models.

    Test-side reference only; the optimizer never sees these derivatives.
    """
    x = data.x[:, 0] if data.x.shape[1] == 1 else data.x
    if isinstance(model, LinearModel):
        cols = [np.ones(data.m)] + [data.x[:, j] for j in range(data.d)]
        dfdb = np.column_stack(cols)
    elif isinstance(model, PolynomialModel):
        dfdb = np.column_stack([x**j for j in range(model.degree + 1)])
    elif isinstance(model, ExponentialDecayModel):
        a, b = beta
        e = np.exp(-b * x)
        dfdb = np.column_stack([e, -a * x * e])
    elif isinstance(model, LogisticModel):
        a, b = beta
        e = np.exp(-b * x)
        denom = 1.0 + e
        dfdb = np.column_stack([1.0 / denom, a * x * e / denom**2])
    else:
        raise AssertionError(f"no hand-coded Jacobian for {model!r}")
    return -dfdb


def brute_force_minimum(evaluate, box, grid_points: int) -> tuple[np.ndarray, float]:
    """Exhaustive objective evaluation on a rectangular grid.

    Returns the minimizing node and its objective value (half the sum of
    squared residuals).  Ties keep the first node in row-major order.  Only
    meant to bracket minima of tiny problems, hence the dimension guard.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    n = len(box)
    if not 1 <= n <= 3:
        raise ConfigError(f"grid search supports 1..3 parameters, got {n}", key="box")
    if grid_points < 2:
        raise ConfigError("need at least 2 grid points per axis", key="grid_points")
    axes = [np.linspace(lo, hi, grid_points) for lo, hi in box]
    best_node = None
    best_value = np.inf
    for node in itertools.product(*axes):
        r = np.asarray(evaluate(np.asarray(node)), dtype=float)
        value = 0.5 * float(r @ r)
        if value < best_value:
            best_node, best_value = node, value
    return np.asarray(best_node), best_value


def linear_dataset() -> Dataset:
    return Dataset(x=np.array([[0.0], [1.0], [2.0]]), y=np.array([1.0, 3.0, 5.0]))


def decay_dataset(n_points: int = 20) -> Dataset:
    x = np.linspace(0.0, 3.0, n_points)
    return Dataset(x=x, y=2.5 * np.exp(-1.3 * x))


def corpus():
    """(name, model, dataset, generating beta) for every built-in model kind."""
    rows = []
    rows.append(("linear", LinearModel(), linear_dataset(), np.array([1.0, 2.0])))

    x = np.linspace(-1.0, 2.0, 12)
    beta = np.array([0.5, -1.5])
    poly = PolynomialModel(degree=1)
    rows.append(
        ("polynomial", poly,
         Dataset(x=x, y=np.polynomial.polynomial.polyval(x, beta)), beta)
    )

    rows.append(("exponential-decay", ExponentialDecayModel(), decay_dataset(),
                 np.array([2.5, 1.3])))

    x = np.linspace(-2.0, 2.0, 15)
    beta = np.array([1.8, 2.2])
    logistic = LogisticModel()
    rows.append(
        ("logistic", logistic,
         Dataset(x=x, y=beta[0] / (1.0 + np.exp(-beta[1] * x))), beta)
    )
    return rows


@pytest.fixture
def linear_evaluator():
    return DatasetEvaluator(LinearModel(), linear_dataset())


class ScriptedEvaluator:
    """Returns residuals from a script keyed by call index; counts calls."""

    def __init__(self, script):
        self.script = script
        self.calls = []

    def __call__(self, beta):
        self.calls.append(np.array(beta))
        step = self.script[min(len(self.calls) - 1, len(self.script) - 1)]
        if isinstance(step, Exception):
            raise step
        if callable(step):
            return step(beta)
        return np.asarray(step, dtype=float)


class CountingEvaluator:
    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, beta):
        self.count += 1
        return self.fn(beta)
