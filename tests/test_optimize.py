import warnings

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
from broydenfit.models import Dataset, ExponentialDecayModel

from conftest import CountingEvaluator, analytic_jacobian, decay_dataset, linear_dataset


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


def test_bootstrap_failure_reports_the_weighted_objective():
    calls = []

    def ev(beta):
        calls.append(1)
        if len(calls) == 2:
            raise EvaluatorFailure("simulator crashed")
        return np.array([1.0, 2.0, 3.0])

    report = optimize(ev, beta0=[1.0, 2.0], weights=[10.0, 10.0, 10.0])
    assert report.status is RunStatus.EvaluatorFailure
    assert report.evaluation_count == 2
    assert report.final_objective == 70.0
    with pytest.raises(ConfigError):
        optimize(ev, beta0=[1.0, 2.0], weights=[10.0, -1.0, 10.0])


def _fails_from(call, residuals):
    """An evaluator that raises EvaluatorFailure("boom") from its call-th call on."""
    calls = []

    def ev(beta):
        calls.append(1)
        if len(calls) >= call:
            raise EvaluatorFailure("boom")
        return residuals(beta)
    return ev


def _kink(beta):
    # A sharp kink exactly at the perturbed second start: no step decreases the
    # norm.  Its slopes differ (2e-10 above, 1e-10 below), so a central-FD
    # rebuild of B there gives a nonzero column and the search goes on failing.
    d = beta[0] - 1.0 * (1.0 + SolverConfig().perturbation_rel)
    return np.full(2, 1.0 + 1e-10 * (2.0 * d if d > 0 else -d))


def _shifted(beta):
    return np.array([beta[0] - 1.0, beta[0] + 1.0])


def _shifted_plus_b1(beta):
    return np.array([beta[0] - 1.0, beta[0] + 1.0, beta[1]])


def _overflowing(beta):
    return np.array([1e200 * beta[0] + 1e200, 1e200 * beta[1] ** 2 - 3e200,
                     1e200 * beta[0] * beta[1]])


def _line(beta):
    return np.array([1.0, 3.0, 5.0]) - beta[0] - beta[1] * np.array([0.0, 1.0, 2.0])


_HYBRID = SolverConfig(fd_refresh_period=1)

# (name, evaluator factory, optimize keywords, status, failure_reason, records,
#  calls, final_objective, SolverState all None)
_EXITS = [
    ("converged", lambda: lambda b: np.array([3.0, 3.0]), dict(n_params=2),
     RunStatus.Converged, None, 1, 2, 8.999999999999998, False),
    ("max-iterations", lambda: _line, dict(n_params=2, config=SolverConfig(max_iterations=2)),
     RunStatus.MaxIterations, None, 2, 9, 0.452677346766747, False),
    ("first-bootstrap-call", lambda: _fails_from(1, _shifted), dict(n_params=1),
     RunStatus.EvaluatorFailure, "bootstrap: boom", 0, 1, np.inf, True),
    ("second-bootstrap-call", lambda: _fails_from(2, _shifted), dict(n_params=1),
     RunStatus.EvaluatorFailure, "bootstrap: boom", 0, 2, 1.0000000000000002, True),
    ("fd-refresh", lambda: _fails_from(4, _shifted_plus_b1), dict(n_params=2, config=_HYBRID),
     RunStatus.EvaluatorFailure, "iteration 1: probe for column 0 failed: boom", 0, 4,
     1.00015, True),
    ("non-finite-normal-equations", lambda: _overflowing, dict(beta0=[1.0, 2.0]),
     RunStatus.LineSearchFloor, "iteration 1: non-finite normal equations "
     "(array must not contain infs or NaNs)", 0, 2, np.inf, False),
    ("singular-at-cap", lambda: _shifted, dict(n_params=2, config=_HYBRID),
     RunStatus.LineSearchFloor, "iteration 1: singular system at damping cap "
     "(pivot ratio 0.000e+00 below 1e-14)", 0, 6, 1.0001, False),
    ("line-search-evaluation", lambda: _fails_from(3, _shifted), dict(n_params=1),
     RunStatus.EvaluatorFailure,
     "iteration 1: every line-search trial failed to evaluate: boom", 0, 16, 1.0001, False),
    ("no-decrease-at-cap", lambda: _kink, dict(beta0=[1.0]),
     RunStatus.LineSearchFloor, "iteration 15: no sufficient-decrease step at damping cap",
     15, 116, 1.0000000000000002, False),
    # Iterations 1 and 2 reject, so iteration 3 rebuilds B; its first probe fails.
    ("stall-refresh", lambda: _fails_from(17, _kink), dict(beta0=[1.0]),
     RunStatus.EvaluatorFailure, "iteration 3: probe for column 0 failed: boom", 2, 17,
     1.0000000000000002, True),
]


@pytest.mark.parametrize(
    "make, kwargs, status, reason, records, calls, objective, no_state",
    [pytest.param(*case[1:], id=case[0]) for case in _EXITS])
def test_every_way_a_run_ends(make, kwargs, status, reason, records, calls, objective,
                              no_state):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = optimize(make(), **kwargs)
        with_state, state = optimize_with_state(make(), **kwargs)
    assert report == with_state
    assert report.status is status
    assert report.failure_reason == reason
    assert len(report.iterations) == records
    assert report.evaluation_count == calls
    assert report.final_objective == objective
    fields = (state.broyden, state.last_step, state.last_residual_change)
    assert all(x is None for x in fields) is no_state


def test_stagnant_steps_are_skipped_and_the_run_goes_on(monkeypatch, caplog):
    # The solution 1e-16 is approached from 0 by steps that shrink 1e4-fold
    # each time, until the squared norm of the step absorbed at iteration 6
    # falls below STAGNANT_SNORM2 and its secant update is skipped.
    pairs, update = [], core.broyden_update

    def spy_update(b, s, t, **kwargs):
        pairs.append((s, t))
        return update(b, s, t, **kwargs)

    monkeypatch.setattr(core, "broyden_update", spy_update)
    report, state = optimize_with_state(
        lambda b: np.array([b[0] - 1e-16, 2 * (b[0] - 1e-16)]), beta0=[0.0])
    skips = [msg for msg in caplog.messages if "secant update skipped" in msg]
    assert len(skips) == 1 and skips[0].startswith("iteration 6: secant update skipped (")
    # The run goes on after the skip: iteration 6 still solves and steps.
    assert report.status is RunStatus.Converged and len(report.iterations) == 6
    assert report.iterations[-1].alpha == 1.0 and report.iterations[-1].armijo_satisfied
    assert report.final_beta.values[0] == pytest.approx(1e-16, rel=1e-6)
    # 5 updates, the skip and the fold of the final pair, itself stagnant.
    assert len(pairs) == 7
    s, t = [(s, t) for s, t in pairs if s @ s >= core.STAGNANT_SNORM2][-1]
    assert float(pairs[-1][0] @ pairs[-1][0]) < core.STAGNANT_SNORM2
    assert np.array_equal(state.last_step, s)
    assert np.array_equal(state.last_residual_change, t)


def test_optimum_on_a_bound_at_zero_converges_there():
    # The optimum 5 lies outside the box; the run reaches the bound 0 and
    # the direction, pinned there, is 0.
    report = optimize(lambda b: np.array([b[0] - 5.0, 2 * (b[0] - 5.0)]),
                      beta0=Parameters([0.0], upper=[0.0]))
    assert report.status is RunStatus.Converged
    assert report.final_beta.values[0] == 0.0
    assert len(report.iterations) == 2 and report.evaluation_count == 3
    assert report.iterations[-1].p_norm == 0.0


@pytest.mark.parametrize("refresh", [None, 1])
@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("f", [np.sqrt, np.log1p, np.square],
                         ids=["sqrt", "log1p", "square"])
def test_optimum_on_a_bound_is_reached(f, scale, refresh):
    # f(beta_0) x + beta_1 fits 1 - 0.5 x best at beta_0 = 0, the lower
    # bound, and beta_1 = 0.75.  The model fails outside the box, so every
    # evaluation, line-search trial and FD probe alike, stays inside it.
    x = np.linspace(0.0, 1.0, 10)

    def ev(b):
        if b[0] < 0.0:
            raise EvaluatorFailure("outside the box")
        return scale * (f(b[0]) * x + b[1] - (1.0 - 0.5 * x))

    report = optimize(ev, Parameters([1.0, 0.0], lower=[0.0, None]),
                      SolverConfig(fd_refresh_period=refresh))
    assert report.status is RunStatus.Converged
    assert report.final_beta.values[0] == 0.0
    assert report.final_beta.values[1] == pytest.approx(0.75, rel=1e-6)


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


@pytest.mark.parametrize("beta0", [[0.0], Parameters([0.0])], ids=["list", "Parameters"])
def test_n_params_must_agree_with_beta0(beta0):
    message = "^n_params gives 2 parameters but the run has 1$"
    with pytest.raises(ConfigError, match=message) as err:
        optimize(_shifted, beta0=beta0, n_params=2)
    assert err.value.key == "n_params"
    assert optimize(_shifted, beta0=beta0, n_params=1) == optimize(_shifted, beta0=beta0)


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


def _scaled_decay_fit(scale):
    ev = DatasetEvaluator(ExponentialDecayModel(), decay_dataset(40))
    return optimize(lambda beta: scale * ev(beta), [1.0, 1.0])


_SMALL_SCALE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: the eye(m, n) start assumes a unit Jacobian")


@pytest.mark.parametrize("k", [pytest.param(k, marks=_SMALL_SCALE) for k in range(-6, -1)]
                         + list(range(-1, 9)))
def test_fit_does_not_depend_on_the_residual_unit(k):
    # Residuals in a unit 10^k times as large have the same least-squares
    # answer; the sufficient-decrease test must not see the unit.
    unscaled = _scaled_decay_fit(1.0)
    assert unscaled.status is RunStatus.Converged
    assert np.allclose(unscaled.final_beta.values, [2.5, 1.3], atol=1e-3)
    report = _scaled_decay_fit(10.0**k)
    assert report.status is RunStatus.Converged
    assert np.max(np.abs(report.final_beta.values - unscaled.final_beta.values)) <= 1e-2


def test_line_search_floor_after_damping_cap():
    # The scale of the kink's B (1e-10, secant or rebuilt by FD) keeps the
    # solved direction large even at the damping cap.
    report = optimize(_kink, [1.0])
    assert report.status is RunStatus.LineSearchFloor
    assert report.failure_reason == "iteration 15: no sufficient-decrease step at damping cap"
    rejected = [rec for rec in report.iterations if not rec.armijo_satisfied]
    assert rejected
    # Rejections escalate the damping up to its cap.
    lams = [rec.lam for rec in report.iterations]
    assert lams == sorted(lams)
    assert report.iterations[-1].lam == LAMBDA_CAP
    assert not report.iterations[-1].armijo_satisfied
    # The iterate never moved off the perturbed start.
    assert report.final_beta.values[0] == 1.0 * (1.0 + SolverConfig().perturbation_rel)


@pytest.mark.parametrize("residuals, kwargs, reason, records, calls", [
    pytest.param(_shifted, dict(n_params=2, config=SolverConfig(lambda_init=0.0,
                                                                 fd_refresh_period=1)),
                 "iteration 1: singular system at damping cap "
                 "(pivot ratio 0.000e+00 below 1e-14)", 0, 6, id="singular"),
    pytest.param(_kink, dict(beta0=[1.0], config=SolverConfig(lambda_init=0.0)),
                 "iteration 26: no sufficient-decrease step at damping cap", 26, 191,
                 id="no-decrease"),
])
def test_zero_initial_damping_still_reaches_the_cap(residuals, kwargs, reason, records,
                                                     calls):
    # An increase starts from the damping floor, so lambda = 0 cannot stay 0.
    report = optimize(residuals, **kwargs)
    assert report.status is RunStatus.LineSearchFloor
    assert report.failure_reason == reason
    assert len(report.iterations) == records and report.evaluation_count == calls
    assert [rec.lam for rec in report.iterations[:2]] == [0.0, 1e-11][:records]


def _spy_rebuilds(monkeypatch):
    """Record each FD rebuild as [records before it, its evaluator calls]; the
    run must pass the returned callback as ``on_iteration``."""
    rebuilds, records, fd = [], [], fdiff.fd_jacobian

    def spy_fd(evaluate, *args, **kwargs):
        calls = []

        def probe(x):
            calls.append(1)
            return evaluate(x)

        rebuilds.append([len(records), calls])
        return fd(probe, *args, **kwargs)

    monkeypatch.setattr(fdiff, "fd_jacobian", spy_fd)
    return rebuilds, records.append


def test_two_rejected_searches_in_a_row_rebuild_b_once(monkeypatch):
    # A decay fit in a tenth of the unit rejects at iterations 9 and 10 and
    # no other: iteration 11 rebuilds B by central FD, 2n = 4 calls.
    rebuilds, on_iteration = _spy_rebuilds(monkeypatch)
    ev = DatasetEvaluator(ExponentialDecayModel(), decay_dataset(40))
    report = optimize(lambda beta: 0.1 * ev(beta), [1.0, 1.0], on_iteration=on_iteration)
    assert report.status is RunStatus.Converged
    rejected = [rec.k for rec in report.iterations if not rec.armijo_satisfied]
    assert rejected == [9, 10]
    assert [(before, len(calls)) for before, calls in rebuilds] == [(10, 4)]


def test_runs_without_a_rejected_pair_make_no_rebuild(monkeypatch):
    # The fit rejects once, at iteration 2; with the stall rule out of reach
    # the run is the same to the bit.
    rebuilds, on_iteration = _spy_rebuilds(monkeypatch)
    ev = DatasetEvaluator(ExponentialDecayModel(), decay_dataset(40))
    report = optimize(lambda beta: 10.0 * ev(beta), [1.0, 1.0], on_iteration=on_iteration)
    assert [rec.k for rec in report.iterations if not rec.armijo_satisfied] == [2]
    assert rebuilds == []
    monkeypatch.setattr(core, "STALL_REFRESH_REJECTIONS", 10**9)
    assert optimize(lambda beta: 10.0 * ev(beta), [1.0, 1.0]) == report


def test_wide_linear_fit_converges_to_lstsq():
    # m = 800, n = 200: pure secant updates stall here and ran into the
    # iteration cap; the stall rebuilds give a fit within 1e-2 of lstsq.
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.0, 1.0, (800, 199))
    truth = rng.choice([-1.0, 1.0], 200)
    y = truth[0] + x @ truth[1:] + 0.1 * rng.standard_normal(800)
    report = optimize(DatasetEvaluator(LinearModel(), Dataset(x=x, y=y)), n_params=200)
    assert report.status is RunStatus.Converged
    ref = np.linalg.lstsq(np.column_stack([np.ones(800), x]), y, rcond=None)[0]
    deviation = np.abs(report.final_beta.values - ref) / np.maximum(np.abs(ref), 1.0)
    assert np.max(deviation) <= 1e-2


def test_refresh_rebuilds_b_in_place():
    ev = DatasetEvaluator(ExponentialDecayModel(), decay_dataset(40))
    beta = Parameters([1.0, 0.5])
    jac = core._SecantJacobian(40, 2, None)
    b = jac.b
    assert jac.refresh(ev, beta.values, beta, None) is None
    assert jac.b is b
    assert np.array_equal(b, fd_jacobian(ev, beta.values))
    assert jac.gram.tobytes() == core.gram_matrix(b).tobytes()


def _tall_linear_problem(n: int):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((4 * n, n - 1))
    y = np.column_stack([np.ones(4 * n), x]) @ rng.standard_normal(n)
    return DatasetEvaluator(LinearModel(), Dataset(x=x, y=y))


@pytest.mark.parametrize("problem, n_params, min_accepted", [
    (lambda: DatasetEvaluator(LinearModel(), linear_dataset()), 2, 3),  # 5 iterations
    (lambda: _tall_linear_problem(26), 26, 30),  # 41 iterations
], ids=["short", "long"])
def test_with_values_runs_at_most_twice_per_run(problem, n_params, min_accepted,
                                                 monkeypatch):
    # The loop carries its iterate as an array: Parameters are built at the
    # bootstrap point and at the exit, not at each accepted step.
    calls = []
    with_values = Parameters.with_values

    def spy(self, values):
        calls.append(values)
        return with_values(self, values)

    monkeypatch.setattr(Parameters, "with_values", spy)
    report = optimize(problem(), n_params=n_params)
    assert report.status is RunStatus.Converged
    assert sum(rec.armijo_satisfied for rec in report.iterations) >= min_accepted
    assert len(calls) <= 2
    assert np.array_equal(calls[-1], report.final_beta.values)


def test_rejected_iterations_raise_lambda():
    report = optimize(_kink, [1.0])
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


def test_a_rebuild_drops_the_last_pair():
    # Iteration 2 rebuilds B by finite differences, then every evaluation
    # fails: B absorbs no pair after the rebuild, so the state reports none
    # rather than the bootstrap pair, which the rebuilt B does not satisfy.
    exact = DatasetEvaluator(ExponentialDecayModel(), decay_dataset())
    calls, limit = [], [np.inf]

    def evaluate(beta):
        if len(calls) >= limit[0]:
            raise EvaluatorFailure("down")
        calls.append(1)
        return exact(beta)

    def after(rec):
        if rec.k == 1:
            limit[0] = len(calls) + 4  # the rebuild's central probes

    report, state = optimize_with_state(evaluate, n_params=2, on_iteration=after,
                                        config=SolverConfig(fd_refresh_period=2))
    assert report.status is RunStatus.EvaluatorFailure
    assert report.failure_reason == ("iteration 2: every line-search trial failed to "
                                     "evaluate: down")
    assert state.broyden is not None
    assert state.last_step is None and state.last_residual_change is None


def _multi_block_linear_problem():
    # m = 20000 rows and n = 8 parameters, two row blocks of the secant pass
    # (16384 and 3616 rows); the fit takes 15 iterations, so the driver
    # carries its Gram matrix through 14 updates after computing it once.
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


def test_overflowing_normal_equations_end_the_run_with_a_report():
    # B^T B overflows to inf after the bootstrap update; no damping can make
    # the system finite, so the run stops at once, without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = optimize(_overflowing, beta0=[1.0, 2.0])
    assert report.status is RunStatus.LineSearchFloor
    assert "non-finite normal equations" in report.failure_reason
    assert report.evaluation_count == 2 and report.iterations == []


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
    # optimize hands backtrack -(rhs @ p); it must equal (B^T r) @ p of the
    # whitened B and r to the bit, and be negative (a descent direction).
    assembled, slopes = [], []
    assemble, search = core.assemble_lm_system, core.backtrack

    def spy_assemble(b, r, lam, gram=None, rhs=None):
        assembled.append((b.copy(), r.copy()))
        return assemble(b, r, lam, gram, rhs)

    def spy_search(x, box, p, config, evaluate, r_old, slope):
        b, r = assembled[-1]
        assert np.array_equal(r_old, r)
        slopes.append(slope)
        assert slope == float((b.T @ r) @ p)
        return search(x, box, p, config, evaluate, r_old, slope)

    monkeypatch.setattr(core, "assemble_lm_system", spy_assemble)
    monkeypatch.setattr(core, "backtrack", spy_search)
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report = optimize(ev, n_params=2, weights=weights)
    assert report.status is RunStatus.Converged
    assert slopes and all(slope < 0 for slope in slopes)


def _refreshed_polynomial_fit(weights):
    # 30 iterations with FD refreshes at k = 15 (the period's) and after stalls.
    x = np.linspace(-1.0, 2.0, 12)
    data = Dataset(x=x, y=np.exp(0.7 * x) + 0.1 * x**3)
    ev = DatasetEvaluator(PolynomialModel(degree=4), data)
    config = SolverConfig(fd_refresh_period=15, epsilon=1e-12, max_iterations=30)
    return optimize(ev, n_params=5, config=config, weights=weights)


@pytest.mark.parametrize("weights", [None, np.linspace(0.5, 2.0, 12)])
def test_maintained_gram_is_exact_after_recompute_points(monkeypatch, weights):
    # The driver computes B^T B afresh only where B is built: at the first
    # solve and after each FD refresh (here at k = 15 and after stalls).
    # There the system it assembles equals the one assembled from B alone,
    # bit for bit.  Every other assembly carries it through the updates
    # since, within the drift bound of test_incremental_gram_drift_is_bounded.
    # "since" counts those updates; the first Gram matrix is computed after
    # the bootstrap pair's.
    since, scale, checked, refreshes = [-1], [0.0], [], [0]
    assemble, update, fd = core.assemble_lm_system, core.broyden_update, fdiff.fd_jacobian
    eps = np.finfo(float).eps

    def spy_fd(*args, **kwargs):
        since[0], refreshes[0] = 0, refreshes[0] + 1
        return fd(*args, **kwargs)

    def spy_update(*args, **kwargs):
        out = update(*args, **kwargs)
        since[0] += 1
        return out

    def spy_assemble(b, r, lam, gram=None, rhs=None):
        out = assemble(b, r, lam, gram, rhs)
        exact = assemble(b, r, lam)
        if since[0] == 0:
            checked.append((refreshes[0], all(np.array_equal(x, y)
                                              for x, y in zip(out, exact))))
            scale[0] = np.linalg.norm(exact[0], 2)
        else:
            scale[0] = max(scale[0], np.linalg.norm(exact[0], 2))
            drift = np.max(np.abs(out[0] - exact[0]))
            assert drift <= 8 * since[0] * eps * scale[0] * (1.0 + lam)
        return out

    monkeypatch.setattr(fdiff, "fd_jacobian", spy_fd)
    monkeypatch.setattr(core, "broyden_update", spy_update)
    monkeypatch.setattr(core, "assemble_lm_system", spy_assemble)
    report = _refreshed_polynomial_fit(weights)
    assert len(report.iterations) == 30
    assert refreshes[0] >= 2  # the period's at k = 15, and a stall's
    assert checked == [(i, True) for i in range(refreshes[0] + 1)]


def test_gram_matrix_runs_only_where_b_is_built(monkeypatch):
    # B^T B is computed from B at the run's first solve and at the first
    # solve after each FD rebuild, and nowhere else: the secant updates in
    # between carry it.
    events = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(core, "gram_matrix", spy("gram", core.gram_matrix))
    monkeypatch.setattr(fdiff, "fd_jacobian", spy("fd", fdiff.fd_jacobian))
    monkeypatch.setattr(core, "assemble_lm_system", spy("solve", core.assemble_lm_system))
    report = _refreshed_polynomial_fit(None)
    assert events.count("solve") == len(report.iterations) == 30
    assert events.count("fd") >= 2
    assert events.count("gram") == 1 + events.count("fd")
    assert events[:2] == ["gram", "solve"]
    assert all(events[i - 1] == "fd" and events[i + 1] == "solve"
               for i, e in enumerate(events) if e == "gram" and i)


def test_fd_refresh_converges_and_leaves_fd_matrix():
    data = linear_dataset()
    ev = DatasetEvaluator(LinearModel(), data)
    cfg = SolverConfig(fd_refresh_period=1)
    report, state = optimize_with_state(ev, n_params=2, config=cfg)
    assert report.status is RunStatus.Converged
    assert np.allclose(report.final_beta.values, [1.0, 2.0], rtol=1e-6, atol=1e-8)


def test_weighted_solver_state_describes_the_raw_residuals():
    # The run works on whitened residuals sqrt(w) * r, but its SolverState
    # describes the Jacobian of the evaluator's own residuals, y - b0 - b1 x.
    data = linear_dataset()
    ev = DatasetEvaluator(LinearModel(), data)
    cfg = SolverConfig(fd_refresh_period=1)
    report, state = optimize_with_state(ev, n_params=2, config=cfg,
                                        weights=np.array([0.5, 4.0, 2.0]))
    assert report.status is RunStatus.Converged
    jac = -np.column_stack([np.ones(3), data.x[:, 0]])
    assert np.allclose(state.broyden, jac, rtol=0, atol=1e-6)
    assert np.allclose(state.broyden @ state.last_step, state.last_residual_change,
                       rtol=0, atol=1e-12)


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


def test_final_objective_is_the_last_records_objective():
    # One formula, 0.5 * rn * rn of the final residuals: on this fit half
    # the squared norm and half the dot product differ in the last bit.
    ev = DatasetEvaluator(ExponentialDecayModel(), decay_dataset())
    report = optimize(ev, beta0=[1.0, 1.0])
    assert report.status is RunStatus.Converged
    assert report.final_objective == report.iterations[-1].objective


def test_on_iteration_callback_sees_every_record():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    seen = []
    report = optimize(ev, n_params=2, on_iteration=seen.append)
    assert seen == report.iterations


def test_on_iteration_raising_evaluator_failure_ends_the_run_with_a_report():
    def stop_at_2(rec):
        if rec.k == 2:
            raise EvaluatorFailure("stopped by the caller")

    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report = optimize(ev, n_params=2, on_iteration=stop_at_2)
    assert report.status is RunStatus.EvaluatorFailure
    assert report.failure_reason == "iteration 2: stopped by the caller"
    assert len(report.iterations) == 2
    assert report.final_objective == report.iterations[-1].objective


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


def test_pinned_coordinates_never_reach_the_solve(monkeypatch):
    # The intercept stops on its upper bound 0.5 and is pinned there.  Each
    # direction solve gets the k x k system of the k free coordinates only,
    # and a pinned coordinate's step is exactly 0.
    events = []

    def spy(kind, fn, record):
        def wrapper(*args):
            events.append((kind, record(*args)))
            return fn(*args)
        return wrapper

    def pinned(x, box, *system):  # rhs = -B^T r comes last
        rhs = system[-1]
        return ((x == box.lower) & (rhs < 0)) | ((x == box.upper) & (rhs > 0))

    monkeypatch.setattr(core, "constrain_step", spy("pinned", core.constrain_step, pinned))
    monkeypatch.setattr(core.linalg, "solve",
                        spy("solve", core.linalg.solve, lambda a, rhs: a.shape))
    monkeypatch.setattr(core, "backtrack",
                        spy("step", core.backtrack, lambda x, box, p, *rest: p.copy()))
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report = optimize(ev, Parameters([0.0, 0.0], lower=[-1.0, -1.0], upper=[0.5, 10.0]))
    assert report.status is RunStatus.Converged
    assert report.final_beta.values[0] == 0.5
    mask, sizes = None, []
    for kind, value in events:
        if kind == "pinned":
            mask = value
        elif kind == "solve":
            k = int((~mask).sum())
            assert value == (k, k)
            sizes.append(k)
        else:
            assert np.all(value[mask] == 0.0)
    assert min(sizes) < 2
