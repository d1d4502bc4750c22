import numpy as np
import pytest

from broydenfit import (
    ConfigError,
    DatasetEvaluator,
    EvaluatorFailure,
    LinearModel,
    Parameters,
    PolynomialModel,
    RunStatus,
    SolverConfig,
    optimize,
    optimize_with_state,
)
from broydenfit import core, fdiff
from broydenfit.fdiff import fd_jacobian
from broydenfit.core import LAMBDA_CAP
from broydenfit.models import Dataset

from conftest import CountingEvaluator, analytic_jacobian, linear_dataset


def test_linear_exact_fit_from_zero_start():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report = optimize(ev, n_params=2)
    assert report.status is RunStatus.Converged
    assert np.allclose(report.final_beta.values, [1.0, 2.0], rtol=1e-4, atol=0)
    assert report.final_objective <= 1e-10


def test_constant_model_finds_the_mean():
    data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([4.0, 6.0]))
    report = optimize(DatasetEvaluator(PolynomialModel(degree=0), data), n_params=1)
    assert report.status is RunStatus.Converged
    assert report.final_beta.values[0] == pytest.approx(5.0, abs=1e-6)
    assert report.final_objective == pytest.approx(1.0, abs=1e-9)


def test_all_nan_evaluator_fails_on_first_evaluation():
    report = optimize(lambda beta: np.array([np.nan, np.nan]), n_params=1)
    assert report.status is RunStatus.EvaluatorFailure
    assert report.evaluation_count == 1
    assert report.iterations == []
    assert report.final_objective == np.inf
    assert "bootstrap" in report.failure_reason


def test_default_start_is_zero():
    seen = []

    def ev(beta):
        seen.append(beta.copy())
        return np.array([beta[0], beta[1], 1.0])

    optimize(ev, n_params=2, config=SolverConfig(max_iterations=2))
    assert np.array_equal(seen[0], [0.0, 0.0])


def test_under_determined_rejected():
    with pytest.raises(ConfigError):
        optimize(lambda beta: np.array([beta[0]]), n_params=2)


def test_evaluation_count_matches_calls():
    inner = DatasetEvaluator(LinearModel(), linear_dataset())
    counter = CountingEvaluator(inner)
    report = optimize(counter, n_params=2)
    assert report.evaluation_count == counter.count


def test_failure_mid_run_records_iteration():
    data = linear_dataset()
    inner = DatasetEvaluator(LinearModel(), data)
    calls = []

    def flaky(beta):
        calls.append(1)
        if len(calls) > 3:
            raise EvaluatorFailure("simulator crashed", category="process_died")
        return inner(beta)

    report = optimize(flaky, n_params=2)
    assert report.status is RunStatus.EvaluatorFailure
    assert report.failure_reason and "iteration" in report.failure_reason
    assert len(report.iterations) >= 1


def test_length_change_mid_run_fails_with_category():
    calls = []

    def shrinking(beta):
        calls.append(1)
        if len(calls) > 2:
            return np.array([1.0, 2.0])
        return np.array([beta[0] - 1.0, beta[0] + 1.0, 3.0])

    report = optimize(shrinking, n_params=1)
    assert report.status is RunStatus.EvaluatorFailure
    assert "length" in report.failure_reason


def test_line_search_floor_after_damping_cap():
    # Sharp kink exactly at the perturbed second start: no direction can
    # decrease the norm, and the secant matrix scale (delta) keeps the solved
    # direction large even at the damping cap.
    delta = 1e-10
    center = 1.0 * (1.0 + SolverConfig().perturbation_rel)

    def ev(beta):
        bump = delta * abs(beta[0] - center)
        return np.array([1.0 + bump, 1.0 + bump])

    report = optimize(ev, [1.0])
    assert report.status is RunStatus.LineSearchFloor
    rejected = [rec for rec in report.iterations if not rec.armijo_satisfied]
    assert rejected
    # Rejections escalate the damping up to its cap.
    lams = [rec.lam for rec in report.iterations]
    assert lams == sorted(lams)
    assert report.iterations[-1].lam == LAMBDA_CAP
    assert not report.iterations[-1].armijo_satisfied
    # The iterate never moved off the perturbed start.
    assert report.final_beta.values[0] == center


def test_rejected_iterations_raise_lambda():
    delta = 1e-10
    center = 1.0 * (1.0 + SolverConfig().perturbation_rel)

    def ev(beta):
        bump = delta * abs(beta[0] - center)
        return np.array([1.0 + bump, 1.0 + bump])

    report = optimize(ev, [1.0])
    factor = SolverConfig().lambda_increase
    for prev, nxt in zip(report.iterations, report.iterations[1:]):
        if not prev.armijo_satisfied:
            assert nxt.lam == pytest.approx(min(prev.lam * factor, LAMBDA_CAP))


def test_zero_direction_is_a_clean_convergence():
    # Constant equal residuals: after the bootstrap update the model gradient
    # vanishes exactly, so the solve returns p = 0 and the run stops cleanly.
    report = optimize(lambda beta: np.array([3.0, 3.0]), n_params=2)
    assert report.status is RunStatus.Converged
    last = report.iterations[-1]
    assert last.alpha == 0.0 and last.p_norm == 0.0 and last.max_rel_change == 0.0


def test_state_secant_pair_is_absorbed():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report, state = optimize_with_state(ev, n_params=2)
    assert report.status is RunStatus.Converged
    assert state.last_step is not None
    lhs = state.broyden @ state.last_step
    assert np.allclose(lhs, state.last_residual_change, rtol=0, atol=1e-12)
    # On a linear model the true Jacobian maps the step to the same change.
    jac = analytic_jacobian(LinearModel(), linear_dataset(), report.final_beta.values)
    num = np.linalg.norm((state.broyden - jac) @ state.last_step)
    den = np.linalg.norm(jac @ state.last_step)
    assert num / den <= 1e-6


def _multi_block_linear_problem():
    # m = 20000 rows and n = 8 parameters; the fit takes 15 iterations, so
    # the driver both updates its Gram matrix and recomputes it.
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (20000, 7))
    beta = rng.choice([-1.0, 1.0], 8)
    y = beta[0] + x @ beta[1:] + 0.1 * rng.standard_normal(20000)
    return DatasetEvaluator(LinearModel(), Dataset(x=x, y=y))


def test_multi_block_trajectories_are_bitwise_reproducible():
    ev = _multi_block_linear_problem()
    report = optimize(ev, n_params=8)
    assert report.status is RunStatus.Converged
    assert report == optimize(ev, n_params=8, weights=np.ones(20000))
    with_state, state = optimize_with_state(ev, n_params=8)
    assert report == with_state
    lhs = state.broyden @ state.last_step
    assert np.allclose(lhs, state.last_residual_change, rtol=0, atol=1e-9)


def test_only_optimize_with_state_folds_the_final_pair(monkeypatch):
    calls = []
    update = core.broyden_update

    def counted(*args, **kwargs):
        calls.append(1)
        return update(*args, **kwargs)

    monkeypatch.setattr(core, "broyden_update", counted)
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report = optimize(ev, n_params=2)
    plain = len(calls)
    assert plain == len(report.iterations)
    optimize_with_state(ev, n_params=2)
    assert len(calls) - plain == plain + 1


@pytest.mark.parametrize("weights", [None, np.array([0.5, 2.0, 1.5])])
def test_line_search_slope_is_the_projected_gradient(monkeypatch, weights):
    # optimize hands backtrack -(rhs @ p); it must equal (B^T W r) @ p to
    # the bit, and be negative (a descent direction).
    assembled, slopes = [], []
    assemble, search = core.assemble_lm_system, core.backtrack

    def spy_assemble(b, r, lam, w=None, gram=None):
        assembled.append((b.copy(), r.copy()))
        return assemble(b, r, lam, w, gram)

    def spy_search(beta, p, config, evaluate, r_old, slope, w=None):
        b, r = assembled[-1]
        wr = r if w is None else w * r
        assert np.array_equal(r_old, r)
        slopes.append(slope)
        assert slope == float((b.T @ wr) @ p)
        return search(beta, p, config, evaluate, r_old, slope, w)

    monkeypatch.setattr(core, "assemble_lm_system", spy_assemble)
    monkeypatch.setattr(core, "backtrack", spy_search)
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report = optimize(ev, n_params=2, weights=weights)
    assert report.status is RunStatus.Converged
    assert slopes and all(slope < 0 for slope in slopes)


@pytest.mark.parametrize("weights", [None, np.linspace(0.5, 2.0, 12)])
def test_maintained_gram_is_exact_after_recompute_points(monkeypatch, weights):
    # The driver recomputes B^T W B at the start, after each FD refresh and
    # after every GRAM_RECOMPUTE_PERIOD-th secant update since then; there
    # the system it assembles equals the one assembled from B alone, bit for
    # bit.  "since" counts the updates made after the last such point; the
    # first one is computed after the bootstrap pair's update.
    since, checked = [-1], []
    assemble, update, fd = core.assemble_lm_system, core.broyden_update, fdiff.fd_jacobian

    def spy_fd(*args, **kwargs):
        since[0] = 0
        return fd(*args, **kwargs)

    def spy_update(*args, **kwargs):
        out = update(*args, **kwargs)
        since[0] += 1
        return out

    def spy_assemble(b, r, lam, w=None, gram=None):
        out = assemble(b, r, lam, w, gram)
        if since[0] % core.GRAM_RECOMPUTE_PERIOD == 0:
            exact = assemble(b, r, lam, w)
            checked.append((since[0], all(np.array_equal(x, y)
                                          for x, y in zip(out, exact))))
        return out

    monkeypatch.setattr(fdiff, "fd_jacobian", spy_fd)
    monkeypatch.setattr(core, "broyden_update", spy_update)
    monkeypatch.setattr(core, "assemble_lm_system", spy_assemble)
    x = np.linspace(-1.0, 2.0, 12)
    data = Dataset(x=x, y=np.exp(0.7 * x) + 0.1 * x**3)
    ev = DatasetEvaluator(PolynomialModel(degree=4), data)
    config = SolverConfig(fd_refresh_period=15, epsilon=1e-12, max_iterations=30)
    report = optimize(ev, n_params=5, config=config, weights=weights)
    assert len(report.iterations) == 30
    assert {n for n, _ in checked} == {0, core.GRAM_RECOMPUTE_PERIOD}
    assert all(exact for _, exact in checked)


def test_fd_refresh_converges_and_leaves_fd_matrix():
    data = linear_dataset()
    ev = DatasetEvaluator(LinearModel(), data)
    cfg = SolverConfig(fd_refresh_period=1)
    report, state = optimize_with_state(ev, n_params=2, config=cfg)
    assert report.status is RunStatus.Converged
    assert np.allclose(report.final_beta.values, [1.0, 2.0], rtol=1e-6, atol=1e-8)


def test_weights_shift_the_compromise():
    # Inconsistent data: the heavily weighted half pulls the fit toward it.
    x = np.array([[0.0], [1.0], [0.0], [1.0]])
    y = np.array([0.0, 1.0, 2.0, 3.0])  # two parallel lines
    data = Dataset(x=x, y=y)
    ev = DatasetEvaluator(LinearModel(), data)
    even = optimize(ev, n_params=2)
    first_half = optimize(ev, n_params=2, weights=np.array([100.0, 100.0, 1.0, 1.0]))
    assert even.status is RunStatus.Converged
    assert first_half.status is RunStatus.Converged
    assert even.final_beta.values[0] == pytest.approx(1.0, abs=1e-3)
    assert first_half.final_beta.values[0] == pytest.approx(0.02, abs=1e-3)


def test_scalar_weight_equivalent_to_vector():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    scalar = optimize(ev, n_params=2, weights=2.0)
    vector = optimize(ev, n_params=2, weights=np.full(3, 2.0))
    assert np.array_equal(scalar.final_beta.values, vector.final_beta.values)


def test_invalid_weights_rejected():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    with pytest.raises(ConfigError):
        optimize(ev, n_params=2, weights=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ConfigError):
        optimize(ev, n_params=2, weights=np.ones(2))


def test_objective_recomputable_from_residual_norm():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report = optimize(ev, n_params=2)
    for rec in report.iterations:
        assert rec.objective == 0.5 * rec.residual_norm**2


def test_diagnostics_attach_condition_estimates():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    plain = optimize(ev, n_params=2)
    assert all(rec.condition is None for rec in plain.iterations)
    diag = optimize(ev, n_params=2, diagnostics=True)
    assert all(
        rec.condition is not None and np.isfinite(rec.condition) and rec.condition >= 1.0
        for rec in diag.iterations
    )


def test_on_iteration_callback_sees_every_record():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    seen = []
    report = optimize(ev, n_params=2, on_iteration=seen.append)
    assert seen == report.iterations


def test_bounded_problem_converges_to_interior_optimum():
    data = linear_dataset()
    ev = DatasetEvaluator(LinearModel(), data)
    beta0 = Parameters([0.0, 0.0], lower=[-10.0, -10.0], upper=[10.0, 10.0])
    report = optimize(ev, beta0)
    assert report.status is RunStatus.Converged
    assert np.allclose(report.final_beta.values, [1.0, 2.0], rtol=1e-4, atol=0)


def test_active_bound_blocks_the_optimum():
    # True intercept is 1.0 but the box stops at 0.5.
    data = linear_dataset()
    ev = DatasetEvaluator(LinearModel(), data)
    beta0 = Parameters([0.0, 0.0], lower=[-1.0, -1.0], upper=[0.5, 10.0])
    report = optimize(ev, beta0)
    assert np.all(report.final_beta.values <= [0.5, 10.0])
    for rec in report.iterations:
        assert rec.beta[0] <= 0.5
