import numpy as np
import pytest

from broydenfit import (
    ConfigError,
    Dataset,
    DatasetEvaluator,
    EvaluatorFailure,
    ExponentialDecayModel,
    LinearModel,
    LogisticModel,
    PolynomialModel,
    make_model,
)
from broydenfit.core import _CountingEvaluator
from broydenfit.models import residuals_from_dataset


def test_linear_exact_fit_residuals():
    data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([1.0, 3.0]))
    r = residuals_from_dataset(LinearModel(), data, np.array([1.0, 2.0]))
    assert np.array_equal(r, [0.0, 0.0])


def test_linear_zero_parameters_residuals():
    data = Dataset(x=np.array([[0.0], [1.0], [2.0]]), y=np.array([1.0, 3.0, 5.0]))
    r = residuals_from_dataset(LinearModel(), data, np.zeros(2))
    assert np.array_equal(r, [1.0, 3.0, 5.0])


def test_decay_zero_rate_residuals():
    data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([2.0, 2.0]))
    r = residuals_from_dataset(ExponentialDecayModel(), data, np.array([2.0, 0.0]))
    assert np.array_equal(r, [0.0, 0.0])


def test_decay_overflow_names_datum():
    # The model returns what it computed; a run's evaluator is the boundary
    # that refuses it, naming the datum.
    data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([1.0, 1.0]))
    beta = np.array([1.0, -1000.0])
    r = residuals_from_dataset(ExponentialDecayModel(), data, beta)
    assert r[0] == 0.0 and r[1] == -np.inf
    with pytest.raises(EvaluatorFailure) as err:
        _CountingEvaluator(DatasetEvaluator(ExponentialDecayModel(), data))(beta)
    assert err.value.category == "non_finite"
    assert "index 1" in str(err.value)  # check_residuals' message, shared by all evaluators


def test_constant_polynomial():
    data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([4.0, 6.0]))
    r = residuals_from_dataset(PolynomialModel(degree=0), data, np.array([5.0]))
    assert np.array_equal(r, [-1.0, 1.0])


def test_polynomial_matches_power_sum():
    x = np.array([-1.0, 0.5, 2.0])
    beta = np.array([1.0, -2.0, 0.5])
    data = Dataset(x=x, y=np.zeros(3))
    r = residuals_from_dataset(PolynomialModel(degree=2), data, beta)
    expected = -(beta[0] + beta[1] * x + beta[2] * x**2)
    assert np.allclose(r, expected, rtol=0, atol=1e-15)


def test_logistic_matches_hand_formula():
    x = np.array([-1.0, 0.0, 2.0])
    beta = np.array([3.0, 0.7])
    data = Dataset(x=x, y=np.zeros(3))
    r = residuals_from_dataset(LogisticModel(), data, beta)
    assert np.allclose(r, -(3.0 / (1.0 + np.exp(-0.7 * x))), rtol=0, atol=1e-15)


def test_multivariate_linear():
    x = np.array([[0.0, 1.0], [2.0, -1.0]])
    data = Dataset(x=x, y=np.array([0.0, 0.0]))
    model = LinearModel()
    assert model.param_count(2) == 3
    r = residuals_from_dataset(model, data, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(r, [-(1.0 + 3.0), -(1.0 + 4.0 - 3.0)])


@pytest.mark.parametrize("d", [0, 1, 5])
def test_linear_predict_bitwise_equal_to_textbook_form(d):
    rng = np.random.default_rng(d)
    x, beta = rng.standard_normal((300, d)), rng.standard_normal(d + 1)
    got = LinearModel().predict(x, beta)
    assert got.dtype == np.float64
    assert got.tobytes() == (beta[0] + x @ beta[1:]).tobytes()


@pytest.mark.parametrize("degree", range(6))
def test_polynomial_predict_bitwise_equal_to_polyval(degree):
    rng = np.random.default_rng(degree)
    x = np.concatenate([[0.0, -0.0, -1.0, -2.5], rng.standard_normal(40)])[:, None]
    zeros = np.zeros(degree + 1)
    for beta in (rng.standard_normal(degree + 1), zeros, -zeros):  # -0.0 too
        got = PolynomialModel(degree=degree).predict(x, beta)
        want = np.polynomial.polynomial.polyval(x[:, 0], beta)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros included


def test_parameter_count_mismatch():
    data = Dataset(x=np.array([[0.0]]), y=np.array([1.0]))
    with pytest.raises(ConfigError):
        residuals_from_dataset(LinearModel(), data, np.array([1.0, 2.0, 3.0]))


def test_univariate_models_reject_extra_columns():
    data = Dataset(x=np.array([[0.0, 1.0]]), y=np.array([1.0]))
    with pytest.raises(ConfigError):
        residuals_from_dataset(PolynomialModel(degree=1), data, np.array([1.0, 2.0]))


def test_dataset_validation():
    with pytest.raises(ConfigError):
        Dataset(x=np.array([[0.0]]), y=np.array([np.nan]))
    with pytest.raises(ConfigError):
        Dataset(x=np.array([[0.0], [1.0]]), y=np.array([1.0]))
    with pytest.raises(ConfigError):
        Dataset(x=np.array([[0.0]]), y=np.array([1.0]), weights=np.array([0.0]))
    with pytest.raises(ConfigError):
        Dataset(x=np.zeros((2, 1, 1)), y=np.zeros(2))  # 3-D x


def test_make_model():
    assert isinstance(make_model("linear"), LinearModel)
    assert make_model("polynomial", 3).degree == 3
    with pytest.raises(ConfigError):
        make_model("polynomial")
    with pytest.raises(ConfigError):
        make_model("spline")


def test_evaluator_is_reusable_and_pure():
    data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([1.0, 3.0]))
    ev = DatasetEvaluator(LinearModel(), data)
    beta = np.array([0.5, 0.5])
    first = ev(beta)
    second = ev(beta)
    assert np.array_equal(first, second)
