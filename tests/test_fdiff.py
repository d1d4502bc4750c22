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
from broydenfit.fdiff import EPS, TINY, fd_jacobian
from broydenfit.models import Dataset, ExponentialDecayModel

from conftest import (
    CountingEvaluator,
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


@pytest.mark.parametrize("scheme", ["central", "forward"])
def test_fd_jacobian_writes_into_out(scheme):
    ev = DatasetEvaluator(ExponentialDecayModel(), decay_dataset(40))
    beta, config = np.array([2.0, 0.7]), FdConfig(scheme=scheme)
    out = np.full((40, 2), np.nan)
    assert fd_jacobian(ev, beta, config, out=out) is out
    assert np.array_equal(out, fd_jacobian(ev, beta, config))


@pytest.mark.parametrize("box", [(None, None), ([0.0, 0.0], [2.0, 0.7])],
                         ids=["unbounded", "on-upper-bounds"])
def test_forward_build_given_its_base_makes_n_calls(box):
    # The residuals at beta, already in hand, stand in for the base evaluation:
    # n calls instead of n + 1, and the same columns bit for bit, flipped
    # probes included.
    ev = CountingEvaluator(DatasetEvaluator(ExponentialDecayModel(), decay_dataset(40)))
    beta, config = np.array([2.0, 0.7]), FdConfig(scheme="forward")
    without = fd_jacobian(ev, beta, config, *box)
    assert ev.count == 3
    base = ev(beta)
    ev.count = 0
    assert fd_jacobian(ev, beta, config, *box, base=base).tobytes() == without.tobytes()
    assert ev.count == 2


def test_central_build_ignores_base():
    ev = CountingEvaluator(DatasetEvaluator(ExponentialDecayModel(), decay_dataset(40)))
    beta = np.array([2.0, 0.7])
    want = fd_jacobian(ev, beta)
    ev.count = 0
    assert fd_jacobian(ev, beta, base=np.full(40, np.nan)).tobytes() == want.tobytes()
    assert ev.count == 4


def _boxed_spy(lower, upper):
    """A quadratic model that fails outside the box, recording every probe."""
    probes = []

    def ev(beta):
        probes.append(beta.copy())
        if np.any(beta < lower) or np.any(beta > upper):
            raise EvaluatorFailure("probe outside the box")
        return np.array([beta[0] ** 2, beta[0] * beta[1], 3.0 * beta[1]])

    return ev, probes


@pytest.mark.parametrize("scheme", ["central", "forward"])
@pytest.mark.parametrize("beta", [[0.0, -1.0], [2.0, 1.0], [0.0, 1.0], [2.0, -1.0]],
                         ids=["lower", "upper", "lower-upper", "upper-lower"])
def test_probes_stay_inside_the_box(scheme, beta):
    lower, upper = np.array([0.0, -1.0]), np.array([2.0, 1.0])
    ev, probes = _boxed_spy(lower, upper)
    beta = np.array(beta)
    jac = fd_jacobian(ev, beta, FdConfig(scheme=scheme), lower, upper)
    assert all(np.all(lower <= x) and np.all(x <= upper) for x in probes)
    exact = np.array([[2.0 * beta[0], 0.0], [beta[1], beta[0]], [0.0, 3.0]])
    assert np.all(np.isfinite(jac))
    assert np.allclose(jac, exact, rtol=1e-5, atol=1e-5)


def test_central_probe_on_upper_bound_divides_by_the_applied_step():
    # The upward probe is clipped to beta itself: the quotient is the
    # one-sided difference over h, not 0 / 0.
    seen = []

    def ev(beta):
        seen.append(beta[0])
        return np.array([beta[0] ** 2])

    h = FdConfig().step(1.0)
    jac = fd_jacobian(ev, np.array([1.0]), FdConfig(), [0.0], [1.0])
    assert seen == [1.0, 1.0 - h]
    assert jac[0, 0] == (1.0 - (1.0 - h) ** 2) / (1.0 - (1.0 - h))
    assert jac[0, 0] == pytest.approx(2.0, rel=1e-5)


def test_unbounded_probes_keep_their_bits():
    ev = DatasetEvaluator(ExponentialDecayModel(), decay_dataset())
    beta = np.array([2.3, 0.7])
    for scheme in ("central", "forward"):
        config = FdConfig(scheme=scheme)
        assert np.array_equal(fd_jacobian(ev, beta, config, [-np.inf] * 2, [np.inf] * 2),
                              fd_jacobian(ev, beta, config))


def _loop_fd_jacobian(evaluate, beta, config, lo, hi):
    """The reference: fd_jacobian's probes and quotients, one coordinate at a
    time in Python's scalar arithmetic."""
    base = evaluate(beta.copy()) if config.scheme == "forward" else None
    columns = []
    for j in range(beta.size):
        h = config.h_rel * max(abs(beta[j]), config.h_abs / config.h_rel)
        if (config.scheme == "forward" and beta[j] + h > hi[j]
                and hi[j] - beta[j] < beta[j] - lo[j]):
            h = -h
        up, down = beta.copy(), beta.copy()
        up[j] = min(max(beta[j] + h, lo[j]), hi[j])
        if config.scheme == "central":
            down[j] = max(beta[j] - h, lo[j])
            columns.append((evaluate(up) - evaluate(down)) / (up[j] - down[j]))
        else:
            columns.append((evaluate(up) - base) / (up[j] - beta[j]))
    return np.column_stack(columns)


@pytest.mark.parametrize("scheme", ["central", "forward"])
def test_probes_and_columns_equal_the_loop_reference_bit_for_bit(scheme):
    # Coordinates inside the box, on and near each bound (a forward probe flips
    # where the box has more room below, and is clipped where it has not), at
    # zero, and one at h = 1e-8 whose flipped probe lands on a lower bound of -0.0.
    rng = np.random.default_rng(2)
    beta = np.array([0.3, -2.0, 0.0, 1.0 - 1e-7, 1.0 - 5e-7, 1e-8, 5.0, -1e3])
    lo = np.array([-1.0, -2.0, -np.inf, 0.0, 1.0 - 8e-7, -0.0, -np.inf, -np.inf])
    hi = np.array([1.0, 0.0, np.inf, 1.0, 1.0, 1.5e-8, 5.0, np.inf])
    weights = rng.standard_normal((9, beta.size))

    def spy(probes):
        def ev(b):
            probes.append(b.copy())
            return np.sin(weights @ b) + np.copysign(1.0, b).sum()  # sees a zero's sign
        return ev

    config, got, want = FdConfig(scheme=scheme), [], []
    jac = fd_jacobian(spy(got), beta, config, lo, hi)
    ref = _loop_fd_jacobian(spy(want), beta, config, lo, hi)
    assert jac.tobytes() == ref.tobytes()
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]


def test_fd_config_validation():
    with pytest.raises(ConfigError):
        FdConfig(scheme="complex")
    with pytest.raises(ConfigError):
        FdConfig(h_rel=0.0)


@pytest.mark.parametrize("scheme", ["central", "forward"])
def test_the_least_step_sizes_still_move_every_probe(scheme):
    # h_rel = eps steps 1.0 by one ulp, and h_abs = the least subnormal steps
    # zero to it: every quotient is exact, none is 0 / 0.
    config = FdConfig(scheme, h_rel=EPS, h_abs=TINY)
    jac = fd_jacobian(lambda b: b.copy(), np.array([1.0, 0.0, -3.0]), config)
    assert np.array_equal(jac, np.eye(3))


@pytest.mark.parametrize("h_rel", [EPS, 1e-6, 0.5, 4.0, 1e10])
def test_a_step_moves_every_coordinate_it_is_taken_of(h_rel):
    # Each size rule's least value: no coordinate, zero, subnormal, normal
    # or huge, is left where it was, either way.
    h_abs = h_rel * TINY if h_rel >= 1 else TINY
    beta = np.array([0.0, TINY, -TINY, 3 * TINY, 2.2e-308, 1.0, -1.0 + EPS, 0.1, -1e290])
    h = FdConfig(h_rel=h_rel, h_abs=h_abs).step(beta)
    assert (beta + h != beta).all() and (beta - h != beta).all()


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
