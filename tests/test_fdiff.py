import numpy as np
import pytest

from broydenfit import (
    ConfigError,
    DatasetEvaluator,
    EvaluatorFailure,
    FdConfig,
    LinearModel,
    PolynomialModel,
)
from broydenfit.fdiff import fd_jacobian
from broydenfit.models import Dataset, ExponentialDecayModel

from conftest import (
    analytic_jacobian,
    brute_force_minimum,
    decay_dataset,
    linear_dataset,
)


def test_linear_model_jacobian_matches_exact():
    data = linear_dataset()
    ev = DatasetEvaluator(LinearModel(), data)
    exact = np.array([[-1.0, 0.0], [-1.0, -1.0], [-1.0, -2.0]])
    jac = fd_jacobian(ev, np.array([0.3, 0.8]))
    assert np.max(np.abs(jac - exact)) <= 1e-9


def test_constant_residuals_zero_jacobian():
    jac = fd_jacobian(lambda beta: np.array([4.0, 2.0, 7.0]), np.array([1.0, -1.0]))
    assert np.array_equal(jac, np.zeros((3, 2)))


def test_quadratic_single_parameter_derivative():
    # r = y - beta^2 has derivative -2 beta = -6 at beta = 3; the central
    # quotient is exact for a parameter-quadratic, so only round-off remains.
    ev = lambda beta: np.array([1.0 - beta[0] ** 2])
    jac = fd_jacobian(ev, np.array([3.0]))
    assert abs(jac[0, 0] - (-6.0)) <= 1e-8


def test_forward_scheme_first_order_accuracy():
    ev = lambda beta: np.array([1.0 - beta[0] ** 2])
    jac = fd_jacobian(ev, np.array([3.0]), FdConfig(scheme="forward"))
    # forward error is ~h * f''/2 = h at h = 3e-6 relative
    assert abs(jac[0, 0] - (-6.0)) <= 1e-5


def test_zero_coordinate_uses_absolute_step():
    cfg = FdConfig()
    assert cfg.step(0.0) == pytest.approx(1e-8)
    assert cfg.step(2.0) == pytest.approx(2e-6)


def test_central_error_scales_quadratically():
    # Halving h cuts the decay-model error ~4x while truncation dominates.
    data = decay_dataset()
    model = ExponentialDecayModel()
    ev = DatasetEvaluator(model, data)
    beta = np.array([2.1, 0.9])
    exact = analytic_jacobian(model, data, beta)
    steps = [1e-2 * 0.5**i for i in range(5)]
    errors = [
        np.max(np.abs(fd_jacobian(ev, beta, FdConfig(scheme="central", h_rel=h)) - exact))
        for h in steps
    ]
    for coarse, fine in zip(errors, errors[1:]):
        ratio = coarse / fine
        assert 4.0 / 1.5 <= ratio <= 4.0 * 1.5
    # ... until round-off takes over: at a tiny h the observed error sits far
    # above the pure-h^2 extrapolation from the truncation regime.
    tiny = fd_jacobian(ev, beta, FdConfig(scheme="central", h_rel=1e-9))
    extrapolated = errors[-1] * (1e-9 / steps[-1]) ** 2
    assert np.max(np.abs(tiny - exact)) > 100 * extrapolated


def test_probe_failure_names_column():
    def ev(beta):
        if beta[1] != 1.0:
            raise EvaluatorFailure("no evaluation here", category="evaluation")
        return np.array([beta[0], beta[1]])

    with pytest.raises(EvaluatorFailure) as err:
        fd_jacobian(ev, np.array([0.5, 1.0]))
    assert "column 1" in str(err.value)


def test_fd_config_validation():
    with pytest.raises(ConfigError):
        FdConfig(scheme="complex")
    with pytest.raises(ConfigError):
        FdConfig(h_rel=0.0)


def test_brute_force_constant_model_mean():
    data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([4.0, 6.0]))
    ev = DatasetEvaluator(PolynomialModel(degree=0), data)
    beta, value = brute_force_minimum(ev, [(0.0, 10.0)], 101)
    assert beta[0] == pytest.approx(5.0)
    assert value == pytest.approx(1.0)


def test_brute_force_constant_objective_tie_break():
    ev = lambda beta: np.array([1.0, 1.0])
    beta, value = brute_force_minimum(ev, [(0.0, 1.0), (0.0, 1.0)], 3)
    assert np.array_equal(beta, [0.0, 0.0])  # first node in row-major order
    assert value == pytest.approx(1.0)


def test_brute_force_linear_grid_hits_exact_node():
    data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([1.0, 3.0]))
    ev = DatasetEvaluator(LinearModel(), data)
    # 41 points over [0, 4] puts (1, 2) exactly on the grid, where S = 0.
    beta, value = brute_force_minimum(ev, [(0.0, 4.0), (0.0, 4.0)], 41)
    assert np.allclose(beta, [1.0, 2.0], rtol=0, atol=1e-12)
    assert value <= 1e-25


def test_brute_force_guards():
    ev = lambda beta: np.array([0.0])
    with pytest.raises(ConfigError):
        brute_force_minimum(ev, [(0.0, 1.0)] * 4, 3)
    with pytest.raises(ConfigError):
        brute_force_minimum(ev, [(0.0, 1.0)], 1)
