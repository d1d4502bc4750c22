import itertools
import math
import warnings

import numpy as np
import pytest

from broydenfit import ConfigError, EvaluatorFailure, Parameters, SolverConfig
from broydenfit import core, linalg
from broydenfit.core import (
    armijo_holds,
    assemble_lm_system,
    backtrack,
    broyden_update,
    constrain_step,
    gram_matrix,
    max_relative_change,
    perturb_initial,
    solve_free,
    update_lambda,
    weighted_norm,
)
from broydenfit.errors import SingularSystem, StagnantStep
from broydenfit.linalg import solve

from conftest import CountingEvaluator


# --- objective -------------------------------------------------------------
# The objective is 0.5 * rn * rn, rn = weighted_norm(r) of the residuals the
# run's evaluator returns, which it has whitened by sqrt(w).

def _objective(residuals, weights=None):
    ev = core._CountingEvaluator(lambda beta: residuals, weights)
    rn = weighted_norm(ev(np.zeros(1)))
    return 0.5 * rn * rn


def test_objective_zero_residual():
    assert _objective(np.zeros(3)) == 0.0


def test_objective_unweighted():
    assert _objective(np.array([3.0, 4.0])) == 12.5


def test_objective_weighted():
    # By hand: 0.5 * (4*1.5^2 + 1*4^2) = 12.5
    assert _objective(np.array([1.5, 4.0]), np.array([4.0, 1.0])) == 12.5


def test_objective_dimension_mismatch():
    with pytest.raises(ConfigError):
        _objective(np.ones(3), np.ones(2))


def test_weighted_norm_is_the_square_root_of_the_dot_product():
    rng = np.random.default_rng(5)
    cases = [np.zeros(3), np.array([3.0, 4.0]), np.array([-0.0]), np.array([1e-200]),
             np.array([1e200, 1e200]), *(rng.standard_normal(m) for m in (1, 7, 50))]
    with np.errstate(over="ignore"):
        for r in cases:
            norm = weighted_norm(r)
            assert type(norm) is float and norm == float(np.sqrt(float(r @ r)))


def test_objective_nonnegative_randomized():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.standard_normal(rng.integers(1, 8))
        w = rng.uniform(0.1, 5.0, size=r.size)
        assert _objective(r, w) >= 0.0


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
    out = perturb_initial(Parameters([-100.0], lower=[-100.0]), SolverConfig())
    assert out.values[0] == pytest.approx(-99.0)


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


def test_perturb_small_coordinate_steps_by_the_absolute_size():
    # Below perturbation_abs / perturbation_rel (1 by default) a coordinate
    # steps by perturbation_abs, as a zero one does.
    out = perturb_initial(Parameters([0.5, -1e-300]), SolverConfig())
    assert np.array_equal(out.values, [0.5 + 0.01, -1e-300 - 0.01])


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


def test_broyden_update_out_must_be_c_contiguous_float64():
    b, s, t = _random_pair(6, 2)
    for out in (np.asfortranarray(b), b.astype(np.float32)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            broyden_update(b, s, t, out=out)


@pytest.fixture
def small_blocks(monkeypatch):
    # The secant pass rounds its rows per block down to a multiple of 64,
    # and takes at least 64: with this every block has 64 rows.
    monkeypatch.setattr(core, "SECANT_BLOCK_ELEMENTS", 1)
    return 64


@pytest.mark.parametrize("m, n", [(200, 7), (1000, 3)])
def test_blocked_update_within_ulps_of_outer_product(small_blocks, m, n):
    assert m > 3 * small_blocks and m % small_blocks  # >= 3 blocks and a remainder
    b, s, t = _random_pair(m, n)
    outer = np.outer((t - b @ s) / float(s @ s), s)
    expected = b + outer
    got = broyden_update(b, s, t)
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - expected) <= 2 * eps * (np.abs(b) + np.abs(outer)))
    assert broyden_update(b, s, t, out=b) is b
    assert np.array_equal(b, got)


@pytest.mark.parametrize("blocks", ["one", "many"])
@pytest.mark.parametrize("weights", [None, "random"])
def test_secant_pass_returns_the_next_right_hand_side(request, blocks, weights):
    # With residuals the update also returns rhs = -(B'^T r) for the
    # updated B'; weights enter as whitened rows of B, t and r.  From one
    # block it is the unblocked product, bit for bit.  Across blocks the sum
    # is taken in another order; each order is within m * eps * (|B'|^T |r|)
    # of the exact sum.
    if blocks == "many":
        request.getfixturevalue("small_blocks")
    m, n = 1000, 6
    b, s, t = _random_pair(m, n)
    rng = np.random.default_rng(3)
    r = rng.standard_normal(m)
    if weights is not None:
        sw = np.sqrt(rng.uniform(0.5, 2.0, m))
        b, t, r = sw[:, None] * b, sw * t, sw * r
    out, rhs = broyden_update(b, s, t, residuals=r)
    assert np.array_equal(out, broyden_update(b, s, t))
    expected = -(out.T @ r)
    if blocks == "one":
        assert rhs.tobytes() == expected.tobytes()
    else:
        eps = np.finfo(float).eps
        assert np.all(np.abs(rhs - expected) <= 2 * m * eps * (np.abs(out.T) @ np.abs(r)))


@pytest.mark.parametrize("weights", [None, "random"])
def test_incremental_gram_drift_is_bounded(weights):
    # After max_iterations - 1 updates (the most a run folds into one Gram
    # matrix: the driver computes it afresh only where B is built), the
    # maintained B^T B stays within 8 * updates * eps * ||B||_2^2 of a fresh
    # product, elementwise, with the norm taken at its largest over the
    # updates.  Weights enter as whitened rows of B and of each t.
    m, n = 2000, 20
    rng = np.random.default_rng(17)
    sw = np.ones(m) if weights is None else np.sqrt(rng.uniform(0.5, 2.0, size=m))
    b = sw[:, None] * rng.standard_normal((m, n))
    gram = gram_matrix(b)
    scale = np.linalg.norm(gram, 2)
    updates = SolverConfig().max_iterations - 1
    for _ in range(updates):
        s = rng.standard_normal(n)
        broyden_update(b, s, sw * rng.standard_normal(m), out=b, gram=gram)
        scale = max(scale, np.linalg.norm(gram_matrix(b), 2))
    assert np.array_equal(gram, gram.T)
    eps = np.finfo(float).eps
    assert np.max(np.abs(gram - gram_matrix(b))) <= 8 * updates * eps * scale


@pytest.mark.parametrize("weights", [None, "random"])
def test_incremental_gram_drift_is_bounded_across_blocks(small_blocks, weights):
    # The same bound when v and u^T u are summed over 32 blocks.
    test_incremental_gram_drift_is_bounded(weights)


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


def test_blocked_stagnant_step_leaves_out_and_gram_untouched(small_blocks):
    m, n = 200, 3
    b, _, t = _random_pair(m, n)
    gram = gram_matrix(b)
    before, gram_before = b.copy(), gram.copy()
    with pytest.raises(StagnantStep):
        broyden_update(b, np.full(n, 1e-16), t, out=b, gram=gram, residuals=t)
    assert np.array_equal(b, before) and np.array_equal(gram, gram_before)


# --- the driver's secant Jacobian -------------------------------------------

def _secant_jacobian(m, n, weights):
    rng = np.random.default_rng(7)
    sw = None if weights is None else np.sqrt(rng.uniform(0.5, 2.0, m))
    return core._SecantJacobian(m, n, sw), np.random.default_rng(8)


def test_secant_jacobian_says_what_it_did():
    # An update returns the right-hand side -B^T r of the updated B, a skip
    # returns None, and a refresh returns None with B's Gram matrix exact.
    jac, rng = _secant_jacobian(6, 2, None)
    r = rng.standard_normal(6)
    jac.pending = (rng.standard_normal(2), rng.standard_normal(6))
    rhs = jac.absorb(r, 1)
    assert rhs.tobytes() == (-(jac.b.T @ r)).tobytes() and jac.pending is None
    jac.pending = (np.full(2, 1e-16), rng.standard_normal(6))
    assert jac.absorb(r, 2) is None and jac.pending is None
    a = rng.standard_normal((6, 2))
    jac.pending = (rng.standard_normal(2), rng.standard_normal(6))
    box = Parameters(np.zeros(2))
    assert jac.refresh(lambda x: a @ x, box.values, a @ box.values, box, None) is None
    assert jac.pending is None
    assert np.allclose(jac.b, a, rtol=1e-6, atol=1e-6)
    assert jac.gram.tobytes() == gram_matrix(jac.b).tobytes()


@pytest.mark.parametrize("weights", [None, "random"])
def test_secant_jacobian_skip_leaves_b_and_gram_untouched(weights, caplog):
    jac, rng = _secant_jacobian(6, 2, weights)
    r = rng.standard_normal(6)
    jac.pending = (rng.standard_normal(2), rng.standard_normal(6))
    jac.absorb(r, 1)
    b, gram, last = jac.b.copy(), jac.gram, jac.last
    jac.pending = (np.full(2, 1e-16), rng.standard_normal(6))
    assert jac.absorb(r, 2) is None
    assert np.array_equal(jac.b, b)
    assert jac.gram is gram and np.array_equal(gram, gram_matrix(b))
    assert jac.last is last
    assert caplog.messages == [
        "iteration 2: secant update skipped "
        "(squared step norm 2.000e-32 below 1e-30)"]


@pytest.mark.parametrize("weights", [None, "random"])
def test_secant_jacobian_system_is_exact_at_recompute_points(weights):
    # The Gram matrix is computed afresh only where B is built: at the first
    # absorb and at each refresh.  There the driver's system, assembled from
    # it and the right-hand side absorb returns, is what assemble_lm_system
    # assembles from B alone, bit for bit.  The updates in between carry it
    # within the drift bound of test_incremental_gram_drift_is_bounded; the
    # right-hand side of their pass is -B^T r, bit for bit.
    m, n, lam = 30, 4, 0.5
    jac, rng = _secant_jacobian(m, n, weights)
    a = rng.standard_normal((m, n))
    eps = np.finfo(float).eps
    exact_points, since, scale = [], 0, 0.0
    for k in range(1, 22):
        r = rng.standard_normal(m)
        before = jac.gram
        if k == 11:
            at = rng.standard_normal(n)
            rhs = jac.refresh(lambda x: a @ x, at, a @ at, Parameters(at), None)
        else:
            jac.pending = (rng.standard_normal(n), rng.standard_normal(m))
            rhs = jac.absorb(r, k)
            assert rhs.tobytes() == (-(jac.b.T @ r)).tobytes()
        got = assemble_lm_system(jac.b, r, lam, jac.gram, rhs)
        want = assemble_lm_system(jac.b, r, lam)
        assert got[1].tobytes() == want[1].tobytes()
        if jac.gram is not before:  # a new matrix, not the one updated in place
            exact_points.append(k)
            assert got[0].tobytes() == want[0].tobytes()
            since, scale = 0, np.linalg.norm(jac.gram, 2)
        else:
            since += 1
            scale = max(scale, np.linalg.norm(gram_matrix(jac.b), 2))
            assert np.array_equal(jac.gram, jac.gram.T)
            assert np.max(np.abs(jac.gram - gram_matrix(jac.b))) <= 8 * since * eps * scale
    assert exact_points == [1, 11]


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
    # Identity weights whiten B and r by sqrt(1) = 1.
    sw = np.sqrt(np.ones(2))
    b = np.array([[1.0], [2.0]])
    a, rhs = assemble_lm_system(sw[:, None] * b, sw * np.array([1.0, 1.0]), 0.0)
    assert np.array_equal(a, [[5.0]])
    assert np.array_equal(rhs, [-3.0])


def test_assemble_takes_a_given_right_hand_side():
    given = np.array([5.0, 6.0])
    a, rhs = assemble_lm_system(np.eye(2), np.array([1.0, 1.0]), 0.0, rhs=given)
    assert rhs is given and np.array_equal(a, np.eye(2))


def test_solve_identity():
    assert np.array_equal(solve(np.eye(2), np.array([-1.0, -1.0])), [-1.0, -1.0])


def test_solve_scaled_identity():
    p = solve(2 * np.eye(2), np.array([-1.0, -1.0]))
    assert np.allclose(p, [-0.5, -0.5], rtol=0, atol=1e-16)


def test_solve_scalar():
    p = solve(np.array([[5.0]]), np.array([-3.0]))
    assert p[0] == pytest.approx(-0.6, abs=1e-16)


def test_solve_singular_signal():
    with pytest.raises(SingularSystem):
        solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


# --- projection onto the box -------------------------------------------------
# constrain_step pins a coordinate that sits on a bound while rhs = -B^T r
# points out of the box; solve_free gives it a zero step and solves the
# damped system of the free coordinates alone.

def _lm_system():
    return (np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]),
            np.array([2.0, -1.0, 0.5]))


def test_constrain_pins_an_outward_coordinate_on_its_upper_bound():
    a, rhs = _lm_system()
    beta = Parameters([1.0, 0.5, 0.0], lower=[0.0, 0.0, -1.0], upper=[1.0, 1.0, 1.0])
    pinned = constrain_step(beta.values, beta, rhs)
    assert pinned.dtype == bool and pinned.tolist() == [True, False, False]
    work = a.copy()
    p = solve_free(work, rhs, pinned)
    assert np.array_equal(work, a) and np.array_equal(rhs, [2.0, -1.0, 0.5])
    assert p[0] == 0.0
    assert p[1:].tobytes() == solve(a[1:, 1:], rhs[1:]).tobytes()


def test_constrain_lower_bound_side():
    a, rhs = _lm_system()
    beta = Parameters([0.5, 0.0, 0.0], lower=[0.0, 0.0, -1.0], upper=[1.0, 1.0, 1.0])
    pinned = constrain_step(beta.values, beta, rhs)
    assert pinned.tolist() == [False, True, False]
    p = solve_free(a, rhs, pinned)
    assert p[1] == 0.0
    assert p[[0, 2]].tobytes() == solve(a[np.ix_([0, 2], [0, 2])], rhs[[0, 2]]).tobytes()


def test_constrain_on_bound_coordinate_pointing_inward_stays_free():
    a, rhs = _lm_system()
    beta = Parameters([0.0, 1.0, 0.0], lower=[0.0, 0.0, -1.0], upper=[1.0, 1.0, 1.0])
    pinned = constrain_step(beta.values, beta, rhs)
    assert not pinned.any()
    assert solve_free(a, rhs, pinned).tobytes() == solve(a, rhs).tobytes()


def test_constrain_zero_direction():
    # A zero component of rhs does not point out of the box.
    beta = Parameters([0.0, 1.0, 1.0], lower=[0.0, 0.0, -1.0], upper=[1.0, 1.0, 1.0])
    assert not constrain_step(beta.values, beta, np.zeros(3)).any()


def test_constrain_all_coordinates_pinned(monkeypatch):
    a, rhs = _lm_system()
    beta = Parameters([1.0, 0.0, 1.0], lower=[0.0, 0.0, -1.0], upper=[1.0, 1.0, 1.0])
    pinned = constrain_step(beta.values, beta, rhs)
    assert pinned.all()

    def no_solve(*args):
        raise AssertionError("an all-pinned step needs no solve")

    monkeypatch.setattr(linalg, "solve", no_solve)
    p = solve_free(a, rhs, pinned)
    assert p.shape == (3,) and not p.any()


def test_constrain_unbounded_passes_through():
    a, rhs = _lm_system()
    beta = Parameters([1.0, 0.0, -1.0])
    for sign in (1.0, -1.0):
        assert not constrain_step(beta.values, beta, sign * rhs).any()
    assert solve_free(a, rhs, np.zeros(3, bool)).tobytes() == solve(a, rhs).tobytes()


def test_a_pinned_coordinate_does_not_enter_the_pivot_test():
    # The free block alone passes the pivot-ratio test (5.0e-14 > 1e-14); a
    # pinned row of any scale, here 100, must not make it singular.
    a = np.array([[1.0, 10.0, 0.0], [10.0, 100.0 + 5e-12, 0.0], [0.0, 0.0, 100.0]])
    rhs = np.array([1.0, 2.0, 3.0])
    p = solve_free(a, rhs, np.array([False, False, True]))
    assert p[2] == 0.0
    assert p[:2].tobytes() == solve(a[:2, :2], rhs[:2]).tobytes()
    with pytest.raises(SingularSystem):  # the whole system: pivot ratio 5.0e-15
        solve(a, rhs)


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
    # 0.5 * bound^2 = 0.5 * 2 + 0.25 * 1 * (-2) = 0.5, so bound = 1
    # (r_old = (1, 1), B = I, p = (-1, -1): slope -2)
    bound = 1.0
    below = bound - 1e-9
    above = bound + 1e-9
    assert armijo_holds(math.sqrt(2.0), below, -2.0, 1.0, 0.25)
    assert not armijo_holds(math.sqrt(2.0), above, -2.0, 1.0, 0.25)


def test_armijo_does_not_depend_on_the_residual_unit():
    # The same trial, with residuals in units 1e-6 to 1e8 times as large:
    # norms scale by u and the slope, a derivative of 0.5 * ||r||^2, by u^2.
    for unit in (1e-6, 1.0, 1e4, 1e8):
        assert armijo_holds(math.sqrt(2.0) * unit, 0.9 * unit, -2.0 * unit**2, 1.0, 0.25)
        assert not armijo_holds(math.sqrt(2.0) * unit, 1.1 * unit, -2.0 * unit**2,
                                1.0, 0.25)


# --- backtracking -----------------------------------------------------------

def _search_setup():
    box = Parameters([0.0, 0.0])
    p = np.array([-1.0, -1.0])
    r_old = np.array([1.0, 1.0])
    slope = -2.0  # B = I: gradient B^T r_old = (1, 1), projected on p
    return box.values, box, p, r_old, slope


def test_backtrack_full_step_one_evaluation():
    x, box, p, r_old, slope = _search_setup()
    ev = CountingEvaluator(lambda point: np.array([0.1, 0.0]))
    alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(), ev, r_old, slope)
    assert (alpha, ok) == (1.0, True)
    assert ev.count == 1
    assert np.array_equal(trial, [-1.0, -1.0])
    assert np.array_equal(r_new, [0.1, 0.0])


def _trial_points(fn):
    """An evaluator of ``fn`` that records the first coordinate of each trial
    point, which is -alpha for the setup above."""
    seen = []

    def ev(point):
        seen.append(-point[0])
        return fn(point)

    return CountingEvaluator(ev), seen


def test_backtrack_half_step_two_evaluations():
    x, box, p, r_old, slope = _search_setup()

    def fn(point):
        # The full step leaves the norm unchanged: the quadratic through
        # phi(0) = 1, phi'(0) = -2 and phi(1) = 1 is least at alpha = 0.5.
        return np.array([1.0, 1.0]) if point[0] == -1.0 else np.array([0.1, 0.0])

    ev, seen = _trial_points(fn)
    alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(), ev, r_old, slope)
    assert (alpha, ok) == (0.5, True)
    assert ev.count == 2 and seen == [1.0, 0.5]
    assert np.array_equal(trial, [-0.5, -0.5])


@pytest.mark.parametrize("full_step, c, second", [
    ([5.0, 0.0], 1e-4, 0.1),  # minimiser 2/27, clamped up to 0.1 * alpha
    ([1.5, 0.0], 1e-4, 8.0 / 17.0),  # minimiser inside the clamp
    ([1.0, 0.0], 0.5, 0.5),  # minimiser 2/3, clamped down to 0.5 * alpha
], ids=["low-clamp", "interior", "high-clamp"])
def test_backtrack_quadratic_step_is_clamped(full_step, c, second):
    # phi(1) = 0.5 * ||full_step||^2 fails the test; the next trial is the
    # minimiser 1 / (phi(1) + 1) of 1 - 2 a + (phi(1) + 1) a^2.
    x, box, p, r_old, slope = _search_setup()

    def fn(point):
        return np.array(full_step) if point[0] == -1.0 else np.array([0.0, 0.0])

    ev, seen = _trial_points(fn)
    alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(armijo_c=c), ev, r_old,
                                        slope)
    assert ok and alpha == pytest.approx(second, rel=1e-15)
    assert seen[0] == 1.0 and len(seen) == 2


def test_backtrack_floor_counts_and_argmin():
    x, box, p, r_old, slope = _search_setup()
    # Trial point is (-alpha, -alpha); norm 3 - alpha always fails the
    # decrease test and is lowest at the full step.  By hand, the quadratic
    # through phi(0) = 1, slope -2 and phi(a) = (3 - a)^2 / 2 is least at
    # a^2 / (3.5 - a + a^2 / 2): 1/3 after 1, 1/29 after 1/3; after 1/29 the
    # minimiser falls below 0.1 * a, so the clamp steps by tenths until the
    # next step would reach the 1e-4 floor.  This is the concave case: the
    # trials' chord slopes d = 3.5 / a - 3 + a / 2 grow as a shrinks, so the
    # quadratic through phi(0) and any two trials has negative curvature and
    # only the floor ends the search.
    ev, seen = _trial_points(lambda point: np.array([3.0 + point[0], 0.0]))
    alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(), ev, r_old, slope)
    assert seen == pytest.approx([1.0, 1 / 3, 1 / 29, 1 / 290, 1 / 2900], rel=1e-12)
    assert ev.count == 5
    assert not ok
    assert alpha == 1.0 and np.array_equal(r_new, [2.0, 0.0])
    assert np.array_equal(trial, [-1.0, -1.0])  # the lowest-norm trial's point


def test_backtrack_ends_when_the_fitted_slope_does_not_descend():
    # The direction ascends: phi(a) = (1 + a)^2, though the secant slope says
    # -2.  phi(1) = 4 fails and the next trial is 1 / 5.  The quadratic through
    # phi(0) and the two trials is phi itself, 1 + 2 a + a^2: convex, with a
    # slope +2 at 0 above armijo_c * -2, so no step passes and the search ends.
    x, box, p, r_old, slope = _search_setup()
    ev, seen = _trial_points(lambda point: np.full(2, 1.0 - point[0]))
    alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(), ev, r_old, slope)
    assert seen == pytest.approx([1.0, 0.2], rel=1e-12) and ev.count == 2
    assert not ok
    assert alpha == seen[1]  # the lowest-norm trial
    assert np.array_equal(trial, [-alpha, -alpha]) and np.array_equal(r_new, 1.0 - trial)


def test_backtrack_goes_on_while_the_convex_fit_descends():
    # phi(a) = 1 - 2 a + 50 a^2: the trials at 1 and 1/10 fail, and the
    # quadratic through them, phi itself, is convex with the slope -2 at 0,
    # below the Armijo line.  So a third trial is taken, at 1/50, and passes.
    x, box, p, r_old, slope = _search_setup()
    ev, seen = _trial_points(lambda point: np.array([1.0 - 6.0 * point[0],
                                                     1.0 + 8.0 * point[0]]))
    alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(), ev, r_old, slope)
    assert seen == pytest.approx([1.0, 0.1, 0.02], rel=1e-12) and ev.count == 3
    assert ok and alpha == pytest.approx(0.02, rel=1e-12)


@pytest.mark.parametrize("bad", ["fails", "overflows"])
def test_backtrack_never_fits_a_trial_without_a_finite_phi(bad):
    # phi(a) = (1 + a)^2 ascends, as in the test of a slope that does not
    # descend, but the trial at 1/5 fails or its squared norm overflows, so
    # the step halves to 1/10.  The fit passes it by: it goes through the
    # trials at 1 and 1/10, which end the search.
    x, box, p, r_old, slope = _search_setup()

    def fn(point):
        if 0.15 < -point[0] < 0.5:
            if bad == "fails":
                raise EvaluatorFailure("unstable here")
            return np.array([1e200, 1e200])
        return np.full(2, 1.0 - point[0])

    ev, seen = _trial_points(fn)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(), ev, r_old, slope)
    assert seen == pytest.approx([1.0, 0.2, 0.1], rel=1e-12) and ev.count == 3
    assert not ok
    assert alpha == seen[2] and np.array_equal(r_new, 1.0 - trial)


def test_backtrack_halves_without_positive_curvature():
    # Along an ascent slope +2, phi(1) = 2 lies below phi(0) + slope = 3:
    # the quadratic through them has no positive curvature, so the step halves.
    x, box, p, r_old, _ = _search_setup()
    ev, seen = _trial_points(
        lambda point: np.array([2.0, 0.0]) if point[0] == -1.0 else np.array([0.0, 0.0]))
    alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(), ev, r_old, 2.0)
    assert (alpha, ok) == (0.5, True)
    assert seen == [1.0, 0.5]


def test_backtrack_floor_tie_keeps_larger_alpha():
    x, box, p, r_old, slope = _search_setup()
    ev = CountingEvaluator(lambda point: np.array([3.0, 0.0]))
    alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(), ev, r_old, slope)
    assert not ok
    assert alpha == 1.0


def test_backtrack_failed_trial_is_skipped():
    # A failed trial has no phi to interpolate: the step halves.
    x, box, p, r_old, slope = _search_setup()

    def fn(point):
        if point[0] == -1.0:
            raise EvaluatorFailure("unstable here")
        return np.array([0.1, 0.0])

    alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(), CountingEvaluator(fn),
                                        r_old, slope)
    assert (alpha, ok) == (0.5, True)


def test_backtrack_all_trials_failing_propagates():
    x, box, p, r_old, slope = _search_setup()

    def fn(point):
        raise EvaluatorFailure("dead", category="process_died")

    with pytest.raises(EvaluatorFailure) as err:
        backtrack(x, box, p, SolverConfig(), fn, r_old, slope)
    assert err.value.category == "process_died"


def test_backtrack_overflowing_trial_norm_is_rejected_silently():
    x, box, p, r_old, slope = _search_setup()
    huge = np.array([1e200, 1e200])  # finite, but its squared norm overflows
    # An infinite phi has no quadratic to interpolate: the step halves.
    with pytest.warns(RuntimeWarning):
        assert weighted_norm(huge) == np.inf

    def fn(point):
        return huge if point[0] == -1.0 else np.array([0.1, 0.0])

    # backtrack runs under its caller's errstate, which optimize sets for a run.
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        alpha, trial, r_new, ok = backtrack(x, box, p, SolverConfig(),
                                            CountingEvaluator(fn), r_old, slope)
    assert (alpha, ok) == (0.5, True)
    assert np.array_equal(r_new, [0.1, 0.0])


def test_optimize_rejects_an_overflowing_trial_norm_silently():
    # The run-level half: the first direction overshoots (B starts as I, the
    # Jacobian is 10 I) into the region where the squared norm overflows.
    huge = np.array([1e200, 1e200])
    overflowed = []

    def fn(point):
        if np.abs(point).max() > 3.0:
            overflowed.append(point)
            return huge
        return 10.0 * (point - np.array([1.0, -1.0]))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = core.optimize(fn, [1.0, 0.0])
    assert overflowed
    assert report.status is core.RunStatus.Converged
    assert np.allclose(report.final_beta.values, [1.0, -1.0], rtol=0, atol=1e-6)


def test_backtrack_first_tries_the_clipped_full_step():
    beta = Parameters([0.5], lower=[0.0], upper=[1.0])
    p = np.array([10.0])
    r_old = np.array([1.0])
    slope = -10.0  # B = -I: gradient -1, projected on p; descent
    seen = []

    def fn(point):
        seen.append(point[0])
        return np.array([0.0])

    alpha, trial, _, ok = backtrack(beta.values, beta, p, SolverConfig(), fn, r_old, slope)
    assert ok and alpha == 1.0
    assert seen == [1.0] and np.array_equal(trial, [1.0])  # clip(0.5 + 10), on the bound


# --- convergence and damping ------------------------------------------------

def test_convergence_small_relative_change():
    change = max_relative_change(np.array([1e-5, 1e-5]), np.array([1.0, 1.0]))
    assert change < SolverConfig().epsilon


def test_convergence_max_rule():
    change = max_relative_change(np.array([0.1, 1e-5]), np.array([1.0, 1.0]))
    assert change >= SolverConfig().epsilon


def test_convergence_zero_parameter_guard():
    epsilon = SolverConfig().epsilon
    assert max_relative_change(np.array([1e-4]), np.array([0.0])) < epsilon
    assert max_relative_change(np.array([1e-2]), np.array([0.0])) >= epsilon


def test_lambda_schedule():
    cfg = SolverConfig()
    assert update_lambda(0.01, True, cfg) == pytest.approx(0.001)
    assert update_lambda(0.01, False, cfg) == pytest.approx(0.1)
    assert update_lambda(1e12, False, cfg) == 1e12
    assert update_lambda(1e-12, True, cfg) == 1e-12
    assert update_lambda(0.0, False, cfg) == 1e-11


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


@pytest.mark.parametrize("lower, upper", [
    ([-1.0, 0.0, -2.0], [1.0, 2.0, -1.0]),  # finite
    ([-np.inf, -np.inf, -np.inf], [np.inf, np.inf, np.inf]),
    ([0.0, -0.0, -np.inf], [np.inf, 1.0, -0.0]),  # signed-zero bounds
], ids=["finite", "unbounded", "zeros"])
def test_clip_is_np_clip_bit_for_bit(lower, upper):
    beta = Parameters(np.clip(np.full(3, 0.5), lower, upper), lower, upper)
    # inside, outside and on each bound, both zeros and both infinities
    candidates = [-np.inf, -3.0, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, np.inf]
    for values in itertools.product(candidates, repeat=3):
        values = np.array(values)
        want = np.clip(values, beta.lower, beta.upper)
        assert beta.clip(values).tobytes() == want.tobytes()


def test_with_values_keeps_the_validated_bounds():
    beta = Parameters([0.5, 0.5], lower=[0.0, -1.0], upper=[1.0, None])
    values = np.array([1.0, -1.0])  # on the bounds
    moved = beta.with_values(values)
    assert np.array_equal(moved.lower, beta.lower)
    assert np.array_equal(moved.upper, beta.upper)
    assert moved == Parameters(values, [0.0, -1.0], [1.0, None])
    assert not Parameters([0.0]) == 3  # only Parameters equal Parameters
    values[0] = 0.25  # the instance holds its own read-only copy
    assert moved.values[0] == 1.0 and not moved.values.flags.writeable
