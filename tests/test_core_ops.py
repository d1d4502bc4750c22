import math
import warnings

import numpy as np
import pytest

from broydenfit import ConfigError, EvaluatorFailure, Parameters, SolverConfig
from broydenfit.core import (
    GRAM_RECOMPUTE_PERIOD,
    armijo_holds,
    assemble_lm_system,
    backtrack,
    broyden_update,
    check_convergence,
    constrain_step,
    gram_matrix,
    objective_value,
    perturb_initial,
    update_lambda,
    weighted_norm,
)
from broydenfit.errors import SingularSystem, StagnantStep
from broydenfit.linalg import solve

from conftest import CountingEvaluator


# --- objective -------------------------------------------------------------

def test_objective_zero_residual():
    assert objective_value(np.zeros(3)) == 0.0


def test_objective_unweighted():
    assert objective_value(np.array([1.0, 2.0])) == 2.5


def test_objective_weighted():
    # By hand: 0.5 * (4*1^2 + 1*1^2) = 2.5
    assert objective_value(np.array([1.0, 1.0]), np.array([4.0, 1.0])) == 2.5


def test_objective_dimension_mismatch():
    with pytest.raises(ConfigError):
        objective_value(np.ones(3), np.ones(2))


def test_objective_nonnegative_randomized():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.standard_normal(rng.integers(1, 8))
        w = rng.uniform(0.1, 5.0, size=r.size)
        assert objective_value(r, w) >= 0.0


# --- bootstrap perturbation -------------------------------------------------

def test_perturb_relative():
    out = perturb_initial(Parameters([100.0, 2.0]), SolverConfig())
    assert np.allclose(out.values, [101.0, 2.02], rtol=0, atol=1e-12)


def test_perturb_zero_fallback():
    out = perturb_initial(Parameters([0.0, 0.0]), SolverConfig())
    assert np.array_equal(out.values, [0.01, 0.01])


def test_perturb_negative_preserves_sign():
    out = perturb_initial(Parameters([-5.0]), SolverConfig())
    assert out.values[0] == pytest.approx(-5.05, abs=1e-12)


def test_perturb_reverses_at_bound():
    # 100 * 1.01 would leave the box, so the move flips downward.
    out = perturb_initial(Parameters([100.0], upper=[100.0]), SolverConfig())
    assert out.values[0] == pytest.approx(99.0)
    out = perturb_initial(Parameters([0.0], lower=[-1.0], upper=[0.0]), SolverConfig())
    assert out.values[0] == pytest.approx(-0.01)


def test_perturb_changes_every_coordinate():
    rng = np.random.default_rng(5)
    cfg = SolverConfig()
    for _ in range(100):
        values = rng.uniform(-10, 10, size=3)
        lo = values - rng.uniform(0, 2, size=3)
        hi = values + rng.uniform(1e-6, 2, size=3)
        beta = Parameters(values, lo, hi)
        out = perturb_initial(beta, cfg)
        assert np.all(out.values != values)
        assert np.all(out.values >= lo) and np.all(out.values <= hi)


# --- secant update ----------------------------------------------------------

def test_broyden_hand_example():
    b = broyden_update(np.eye(2), np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    assert np.array_equal(b, [[2.0, 0.0], [0.0, 1.0]])


def test_broyden_zero_secant_error_is_identity_operation():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((4, 3))
    s = rng.standard_normal(3)
    assert np.allclose(broyden_update(b, s, b @ s), b, rtol=0, atol=1e-14)


def test_broyden_from_zero_matrix():
    b = broyden_update(np.zeros((2, 2)), np.array([0.0, 1.0]), np.array([3.0, 4.0]))
    assert np.array_equal(b, [[0.0, 3.0], [0.0, 4.0]])


def test_broyden_secant_condition_randomized():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, m + 1))
        b = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
        s = rng.standard_normal(n)
        t = rng.standard_normal(m)
        b_new = broyden_update(b, s, t)
        lhs = np.linalg.norm(b_new @ s - t)
        bound = 4 * eps * (np.linalg.norm(t)
                           + np.linalg.norm(b, "fro") * np.linalg.norm(s))
        assert lhs <= bound


def _random_pair(m, n):
    rng = np.random.default_rng(m + n)
    return rng.standard_normal((m, n)), rng.standard_normal(n), rng.standard_normal(m)


@pytest.mark.parametrize("m, n", [(200000, 20), (800, 200), (1, 1)])
def test_broyden_update_within_ulps_of_outer_product(m, n):
    # BLAS dger fuses each multiply-add, so it may differ from the two
    # roundings of b + outer(u, s) by an ulp of either term.
    b, s, t = _random_pair(m, n)
    outer = np.outer((t - b @ s) / float(s @ s), s)
    expected = b + outer
    before = b.copy()
    got = broyden_update(b, s, t)
    assert np.array_equal(b, before)  # without out, the input is untouched
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - expected) <= 2 * eps * (np.abs(b) + np.abs(outer)))


@pytest.mark.parametrize("m, n", [(800, 200), (1, 1)])
def test_broyden_update_out_is_written_in_place(m, n):
    b, s, t = _random_pair(m, n)
    expected = broyden_update(b, s, t)
    b2 = np.empty_like(b)
    assert broyden_update(b, s, t, out=b2) is b2
    assert np.array_equal(b2, expected)
    assert broyden_update(b, s, t, out=b) is b
    assert np.array_equal(b, expected)


@pytest.mark.parametrize("weights", [None, "random"])
def test_incremental_gram_drift_is_bounded(weights):
    # After GRAM_RECOMPUTE_PERIOD - 1 updates (the most the driver folds in
    # before recomputing), the maintained B^T W B stays within
    # 8 * (k - 1) * eps * ||sqrt(W) B||_2^2 of a fresh product, elementwise,
    # with the norm taken at its largest over the updates.
    m, n = 2000, 20
    rng = np.random.default_rng(17)
    w = None if weights is None else rng.uniform(0.5, 2.0, size=m)
    b = rng.standard_normal((m, n))
    gram = gram_matrix(b, w)
    scale = np.linalg.norm(gram, 2)
    updates = GRAM_RECOMPUTE_PERIOD - 1
    for _ in range(updates):
        s = rng.standard_normal(n)
        broyden_update(b, s, rng.standard_normal(m), out=b, gram=gram, weights=w)
        scale = max(scale, np.linalg.norm(gram_matrix(b, w), 2))
    assert np.array_equal(gram, gram.T)
    eps = np.finfo(float).eps
    assert np.max(np.abs(gram - gram_matrix(b, w))) <= 8 * updates * eps * scale


def test_broyden_stagnant_step():
    b = np.eye(2)
    with pytest.raises(StagnantStep):
        broyden_update(b, np.array([1e-16, 0.0]), np.array([1.0, 1.0]))
    out = np.full((2, 2), 7.0)
    with pytest.raises(StagnantStep):
        broyden_update(b, np.array([1e-16, 0.0]), np.array([1.0, 1.0]), out=out)
    assert np.array_equal(out, np.full((2, 2), 7.0))
    with pytest.raises(StagnantStep):
        broyden_update(b, np.array([1e-16, 0.0]), np.array([1.0, 1.0]), out=b)
    assert np.array_equal(b, np.eye(2))


# --- system assembly and direction solve ------------------------------------

def test_assemble_identity_no_damping():
    a, rhs = assemble_lm_system(np.eye(2), np.array([1.0, 1.0]), 0.0)
    assert np.array_equal(a, np.eye(2))
    assert np.array_equal(rhs, [-1.0, -1.0])


def test_assemble_identity_unit_damping():
    a, rhs = assemble_lm_system(np.eye(2), np.array([1.0, 1.0]), 1.0)
    assert np.array_equal(a, 2 * np.eye(2))
    assert np.array_equal(rhs, [-1.0, -1.0])


def test_assemble_column_with_identity_weights():
    b = np.array([[1.0], [2.0]])
    a, rhs = assemble_lm_system(b, np.array([1.0, 1.0]), 0.0, np.ones(2))
    assert np.array_equal(a, [[5.0]])
    assert np.array_equal(rhs, [-3.0])


def test_assemble_identity_weights_bitwise_equal_to_unweighted():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((5, 3))
    r = rng.standard_normal(5)
    a0, rhs0 = assemble_lm_system(b, r, 0.37)
    a1, rhs1 = assemble_lm_system(b, r, 0.37, np.ones(5))
    assert np.array_equal(a0, a1)
    assert np.array_equal(rhs0, rhs1)


def test_assemble_rejects_negative_damping():
    with pytest.raises(ConfigError):
        assemble_lm_system(np.eye(2), np.ones(2), -0.1)


def test_lm_step_identity():
    assert np.array_equal(solve(np.eye(2), np.array([-1.0, -1.0])), [-1.0, -1.0])


def test_lm_step_scaled_identity():
    p = solve(2 * np.eye(2), np.array([-1.0, -1.0]))
    assert np.allclose(p, [-0.5, -0.5], rtol=0, atol=1e-16)


def test_lm_step_scalar():
    p = solve(np.array([[5.0]]), np.array([-3.0]))
    assert p[0] == pytest.approx(-0.6, abs=1e-16)


def test_lm_step_singular_signal():
    with pytest.raises(SingularSystem):
        solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


# --- feasible-step constraint -----------------------------------------------

def test_constrain_halfway_to_upper_bound():
    beta = Parameters([0.5], lower=[0.0], upper=[1.0])
    # Half-way to the bound is 0.75, so alpha * 10 = 0.25.
    assert constrain_step(beta, np.array([10.0])) == pytest.approx(0.025)


def test_constrain_unbounded_passes_through():
    assert constrain_step(Parameters([0.5]), np.array([10.0])) == 1.0


def test_constrain_step_inside_envelope():
    beta = Parameters([0.5], lower=[0.0], upper=[1.0])
    assert constrain_step(beta, np.array([0.1])) == 1.0


def test_constrain_lower_bound_side():
    beta = Parameters([0.5], lower=[0.0], upper=[1.0])
    # Half-way to the lower bound is 0.25, so alpha * 10 = 0.25 downhill.
    assert constrain_step(beta, np.array([-10.0])) == pytest.approx(0.025)


def test_constrain_zero_direction():
    beta = Parameters([0.5], lower=[0.0], upper=[1.0])
    assert constrain_step(beta, np.zeros(1)) == 1.0


def test_constrain_pinned_coordinate_stays_positive():
    # A coordinate sitting exactly on its bound cannot cap the whole step.
    beta = Parameters([1.0, 0.5], lower=[0.0, 0.0], upper=[1.0, 1.0])
    alpha = constrain_step(beta, np.array([1.0, 1.0]))
    assert alpha == pytest.approx(0.25)
    assert alpha > 0


# --- sufficient decrease ----------------------------------------------------

def test_armijo_large_decrease_accepted():
    # r_old = (5, 5, 5, 5) has norm 10 and r_new = (1, 0, 0, 0) norm 1; with
    # B = ones((4, 2)) and p = (-1, -1) the slope (B^T r_old) @ p is -40.
    assert armijo_holds(10.0, 1.0, -40.0, 1.0, 1e-4)


def test_armijo_no_decrease_rejected():
    # r_old = (1, 1), B = I: gradient (1, 1), slope along p = (-1, -1) is -2.
    norm = math.sqrt(2.0)
    assert not armijo_holds(norm, norm, -2.0, 1.0, 1e-4)


def test_armijo_hand_bound():
    # bound = sqrt(2) + 0.5 * 1 * (-2) = sqrt(2) - 1
    # (r_old = (1, 1), B = I, p = (-1, -1): slope -2)
    bound = math.sqrt(2.0) - 1.0
    below = bound - 1e-9
    above = bound + 1e-9
    assert armijo_holds(math.sqrt(2.0), below, -2.0, 1.0, 0.5)
    assert not armijo_holds(math.sqrt(2.0), above, -2.0, 1.0, 0.5)


# --- backtracking -----------------------------------------------------------

def _search_setup():
    beta = Parameters([0.0, 0.0])
    p = np.array([-1.0, -1.0])
    r_old = np.array([1.0, 1.0])
    slope = -2.0  # B = I: gradient B^T r_old = (1, 1), projected on p
    return beta, p, r_old, slope


def test_backtrack_full_step_one_evaluation():
    beta, p, r_old, slope = _search_setup()
    ev = CountingEvaluator(lambda point: np.array([0.1, 0.0]))
    alpha, r_new, ok = backtrack(beta, p, SolverConfig(), ev, r_old, slope)
    assert (alpha, ok) == (1.0, True)
    assert ev.count == 1
    assert np.array_equal(r_new, [0.1, 0.0])


def test_backtrack_half_step_two_evaluations():
    beta, p, r_old, slope = _search_setup()

    def fn(point):
        # Full step lands at (-1, -1); the halved one at (-0.5, -0.5).
        return np.array([5.0, 0.0]) if point[0] == -1.0 else np.array([0.1, 0.0])

    ev = CountingEvaluator(fn)
    alpha, r_new, ok = backtrack(beta, p, SolverConfig(), ev, r_old, slope)
    assert (alpha, ok) == (0.5, True)
    assert ev.count == 2


def expected_trial_alphas(alpha0=1.0, alpha_min=1e-4):
    alphas = [alpha0]
    while alphas[-1] * 0.5 > alpha_min:
        alphas.append(alphas[-1] * 0.5)
    return alphas


def test_backtrack_floor_counts_and_argmin():
    beta, p, r_old, slope = _search_setup()
    # Trial point is (-alpha, -alpha); norm 3 - alpha always fails the
    # decrease test and is lowest at the full step.
    ev = CountingEvaluator(lambda point: np.array([3.0 + point[0], 0.0]))
    alpha, r_new, ok = backtrack(beta, p, SolverConfig(), ev, r_old, slope)
    trials = expected_trial_alphas()
    assert len(trials) == 14  # enumerated independently above
    assert ev.count == len(trials)
    assert not ok
    assert alpha == 1.0


def test_backtrack_floor_tie_keeps_larger_alpha():
    beta, p, r_old, slope = _search_setup()
    ev = CountingEvaluator(lambda point: np.array([3.0, 0.0]))
    alpha, r_new, ok = backtrack(beta, p, SolverConfig(), ev, r_old, slope)
    assert not ok
    assert alpha == 1.0


def test_backtrack_failed_trial_is_skipped():
    beta, p, r_old, slope = _search_setup()

    def fn(point):
        if point[0] == -1.0:
            raise EvaluatorFailure("unstable here")
        return np.array([0.1, 0.0])

    alpha, r_new, ok = backtrack(beta, p, SolverConfig(), CountingEvaluator(fn),
                                 r_old, slope)
    assert (alpha, ok) == (0.5, True)


def test_backtrack_all_trials_failing_propagates():
    beta, p, r_old, slope = _search_setup()

    def fn(point):
        raise EvaluatorFailure("dead", category="process_died")

    with pytest.raises(EvaluatorFailure) as err:
        backtrack(beta, p, SolverConfig(), fn, r_old, slope)
    assert err.value.category == "process_died"


def test_backtrack_overflowing_trial_norm_is_rejected_silently():
    beta, p, r_old, slope = _search_setup()
    huge = np.array([1e200, 1e200])  # finite, but its squared norm overflows
    with pytest.warns(RuntimeWarning):
        assert weighted_norm(huge) == np.inf

    def fn(point):
        return huge if point[0] == -1.0 else np.array([0.1, 0.0])

    for weights in (None, np.ones(2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha, r_new, ok = backtrack(beta, p, SolverConfig(), CountingEvaluator(fn),
                                         r_old, slope, weights)
        assert (alpha, ok) == (0.5, True)
        assert np.array_equal(r_new, [0.1, 0.0])


def test_backtrack_starts_from_constrained_alpha():
    beta = Parameters([0.5], lower=[0.0], upper=[1.0])
    p = np.array([10.0])
    r_old = np.array([1.0])
    slope = -10.0  # B = -I: gradient -1, projected on p; descent
    seen = []

    def fn(point):
        seen.append(point[0])
        return np.array([0.0])

    alpha, _, ok = backtrack(beta, p, SolverConfig(), fn, r_old, slope)
    assert ok and alpha == pytest.approx(0.025)
    assert seen[0] == pytest.approx(0.75)  # half-way point, never beyond


# --- convergence and damping ------------------------------------------------

def test_convergence_small_relative_change():
    assert check_convergence(np.array([1e-5, 1e-5]), Parameters([1.0, 1.0]),
                             SolverConfig())


def test_convergence_max_rule():
    assert not check_convergence(np.array([0.1, 1e-5]), Parameters([1.0, 1.0]),
                                 SolverConfig())


def test_convergence_zero_parameter_guard():
    assert check_convergence(np.array([1e-4]), Parameters([0.0]), SolverConfig())
    assert not check_convergence(np.array([1e-2]), Parameters([0.0]), SolverConfig())


def test_convergence_p_norm_guard():
    p = np.array([1e-5])
    beta = Parameters([1e-9])  # relative change is huge
    assert not check_convergence(p, beta, SolverConfig())
    assert check_convergence(p, beta, SolverConfig(max_p_norm=1e-4))


def test_lambda_schedule():
    cfg = SolverConfig()
    assert update_lambda(0.01, True, cfg) == pytest.approx(0.001)
    assert update_lambda(0.01, False, cfg) == pytest.approx(0.1)
    assert update_lambda(1e12, False, cfg) == 1e12
    assert update_lambda(1e-12, True, cfg) == 1e-12


def test_config_validation():
    with pytest.raises(ConfigError) as err:
        SolverConfig(epsilon=-1.0)
    assert err.value.key == "epsilon"
    with pytest.raises(ConfigError):
        SolverConfig(armijo_c=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(alpha_min=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(lambda_decrease=1.5)
    with pytest.raises(ConfigError):
        SolverConfig(max_iterations=1)


def test_parameters_validation():
    with pytest.raises(ConfigError):
        Parameters([np.nan])
    with pytest.raises(ConfigError):
        Parameters([2.0], lower=[0.0], upper=[1.0])
    with pytest.raises(ConfigError):
        Parameters([0.0], lower=[0.0], upper=[0.0])  # degenerate box


@pytest.mark.parametrize("values", [
    [np.nan, 0.5], [np.inf, 0.5], [-np.inf, 0.5],  # non-finite
    [1.5, 0.5], [0.5, -1.5],  # outside the box
    [0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]],  # wrong length or shape
], ids=["nan", "inf", "-inf", "above", "below", "short", "long", "2-D"])
def test_with_values_checks_the_new_values(values):
    beta = Parameters([0.5, 0.5], lower=[0.0, -1.0], upper=[1.0, None])
    with pytest.raises(ConfigError):
        beta.with_values(np.array(values))


def test_with_values_keeps_the_validated_bounds():
    beta = Parameters([0.5, 0.5], lower=[0.0, -1.0], upper=[1.0, None])
    values = np.array([1.0, -1.0])  # on the bounds
    moved = beta.with_values(values)
    assert moved.lower is beta.lower and moved.upper is beta.upper
    assert moved == Parameters(values, [0.0, -1.0], [1.0, None])
    values[0] = 0.25  # the instance holds its own read-only copy
    assert moved.values[0] == 1.0 and not moved.values.flags.writeable
