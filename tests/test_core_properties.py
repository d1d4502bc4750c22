import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broydenfit import (
    Dataset,
    DatasetEvaluator,
    LinearModel,
    Parameters,
    RunStatus,
    SolverConfig,
    optimize,
)
from broydenfit.core import (
    assemble_lm_system,
    broyden_update,
    constrain_step,
    perturb_initial,
    weighted_norm,
)
from broydenfit.linalg import solve

from conftest import analytic_jacobian, corpus, linear_dataset

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def secant_triples(draw):
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, m))
    b = draw(st.lists(finite, min_size=m * n, max_size=m * n))
    s = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    t = draw(st.lists(finite, min_size=m, max_size=m))
    return np.reshape(b, (m, n)), np.asarray(s), np.asarray(t)


@given(secant_triples())
@settings(max_examples=300, deadline=None)
def test_secant_condition_holds(triple):
    b, s, t = triple
    if float(s @ s) < 1e-30:
        return
    b_new = broyden_update(b, s, t)
    eps = np.finfo(float).eps
    bound = 4 * eps * (np.linalg.norm(t) + np.linalg.norm(b, "fro") * np.linalg.norm(s))
    assert np.linalg.norm(b_new @ s - t) <= bound


def constrain_step_loop(beta, p, alpha=1.0):
    """Per-coordinate reference for the vectorised :func:`constrain_step`."""
    cap = float(alpha)
    for v, lo, hi, pj in zip(beta.values, beta.lower, beta.upper, p):
        if pj > 0 and np.isfinite(hi):
            room = 0.5 * (hi - v)
        elif pj < 0 and np.isfinite(lo):
            room = 0.5 * (v - lo)
        else:
            continue
        limit = room / abs(pj)
        if limit > 0:
            cap = min(cap, limit)
    return cap


@st.composite
def boxed_coordinate(draw):
    """(value, lower, upper) with infinite sides, values on a bound and an
    ulp inside one."""
    lo = draw(st.one_of(st.just(-np.inf), finite))
    hi = draw(st.one_of(st.just(np.inf), finite))
    lo, hi = min(lo, hi), max(lo, hi)
    if lo == hi:
        hi = np.inf
    at = draw(st.sampled_from(["inside", "lower", "upper", "ulp_above_lower",
                               "ulp_below_upper"]))
    if at == "lower" and np.isfinite(lo):
        return lo, lo, hi
    if at == "upper" and np.isfinite(hi):
        return hi, lo, hi
    if at == "ulp_above_lower" and np.isfinite(lo):
        return np.nextafter(lo, np.inf), lo, hi
    if at == "ulp_below_upper" and np.isfinite(hi):
        return np.nextafter(hi, -np.inf), lo, hi
    v = draw(st.floats(max(lo, -1e6), min(hi, 1e6)))
    return v, lo, hi


directions = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310]),  # zero, subnormal
    st.floats(-1e-300, 1e-300),
    finite,
)


@given(st.lists(st.tuples(boxed_coordinate(), directions), min_size=1, max_size=6),
       st.one_of(st.just(1.0), st.floats(1e-6, 1.0)))
@settings(max_examples=500, deadline=None)
def test_constrain_step_matches_per_coordinate_loop(coords, alpha):
    v, lo, hi = (np.array(c) for c in zip(*(box for box, _ in coords)))
    p = np.array([pj for _, pj in coords])
    beta = Parameters(v, lo, hi)
    got = constrain_step(beta, p, alpha)
    with np.errstate(over="ignore"):  # room / subnormal p
        expected = constrain_step_loop(beta, p, alpha)
    assert float(got).hex() == float(expected).hex()
    assert 0 < got <= alpha


def test_gradient_descent_limit():
    # Coordinate-wise relative comparison against -g_j / (lam * gram_jj).
    # The law's leading term must not vanish for a relative error to be
    # meaningful, so draws with a near-zero gradient coordinate (or a
    # near-zero Gram diagonal) are skipped.
    rng = np.random.default_rng(12)
    lam = 1e8
    kept = 0
    while kept < 50:
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        b = rng.standard_normal((m, n))
        r = rng.standard_normal(m)
        g = b.T @ r
        gram = b.T @ b
        if np.min(np.abs(g)) < 0.05 * np.max(np.abs(g)) or np.min(np.diag(gram)) < 0.3:
            continue
        kept += 1
        a, rhs = assemble_lm_system(b, r, lam)
        p = solve(a, rhs)
        expected = -g / (lam * np.diag(gram))
        assert np.max(np.abs(p - expected) / np.abs(expected)) < 1e-6


def test_gauss_newton_limit_one_step_exact():
    data = linear_dataset()
    model = LinearModel()
    beta = np.array([0.3, -0.7])
    jac = analytic_jacobian(model, data, beta)
    r = DatasetEvaluator(model, data)(beta)
    a, rhs = assemble_lm_system(jac, r, 0.0)
    step = solve(a, rhs)
    target, *_ = np.linalg.lstsq(
        np.column_stack([np.ones(data.m), data.x[:, 0]]), data.y, rcond=None
    )
    assert np.allclose(beta + step, target, rtol=1e-10, atol=0)


def test_residual_scaling_scales_direction():
    rng = np.random.default_rng(21)
    b = rng.standard_normal((6, 3))
    r = rng.standard_normal(6)
    a0, rhs0 = assemble_lm_system(b, r, 0.05)
    p0 = solve(a0, rhs0)
    for gamma in (2.0, 3.7):
        a1, rhs1 = assemble_lm_system(b, gamma * r, 0.05)
        p1 = solve(a1, rhs1)
        if gamma == 2.0:
            assert np.array_equal(p1, gamma * p0)  # exact power-of-two scaling
        else:
            assert np.allclose(p1, gamma * p0, rtol=1e-12, atol=0)


def _trace_tuple(report):
    return [
        (rec.k, tuple(rec.beta), rec.residual_norm, rec.objective, rec.lam,
         rec.alpha, rec.p_norm, rec.max_rel_change, rec.armijo_satisfied)
        for rec in report.iterations
    ]


def test_identity_weights_reproduce_unweighted_trace():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    plain = optimize(ev, n_params=2)
    weighted = optimize(ev, n_params=2, weights=np.ones(3))
    assert plain.status is weighted.status
    assert _trace_tuple(plain) == _trace_tuple(weighted)
    assert np.array_equal(plain.final_beta.values, weighted.final_beta.values)


def test_doubling_weights_leaves_direction_unchanged():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((7, 3))
    r = rng.standard_normal(7)
    w = rng.uniform(0.5, 4.0, size=7)
    p1 = solve(*assemble_lm_system(b, r, 0.3, w))
    p2 = solve(*assemble_lm_system(b, r, 0.3, 2.0 * w))
    assert np.allclose(p2, p1, rtol=1e-12, atol=0)


def test_monotone_descent_on_corpus():
    for name, model, data, beta_true in corpus():
        ev = DatasetEvaluator(model, data)
        cfg = SolverConfig()
        report = optimize(ev, n_params=model.param_count(data.d), config=cfg)
        assert report.status is RunStatus.Converged, name
        start = Parameters(np.zeros(model.param_count(data.d)))
        prev_norm = weighted_norm(ev(perturb_initial(start, cfg).values))
        for rec in report.iterations:
            if rec.armijo_satisfied and rec.alpha > 0:
                assert rec.residual_norm < prev_norm, name
            else:
                assert rec.residual_norm == prev_norm, name
            prev_norm = rec.residual_norm


def test_bounded_run_snapshots_stay_feasible():
    data = linear_dataset()
    ev = DatasetEvaluator(LinearModel(), data)
    beta0 = Parameters([0.0, 0.0], lower=[-0.5, -0.5], upper=[1.2, 2.5])
    report = optimize(ev, beta0)
    assert report.iterations
    for rec in report.iterations:
        assert np.all(rec.beta >= beta0.lower) and np.all(rec.beta <= beta0.upper)
    assert np.all(report.final_beta.values >= beta0.lower)
    assert np.all(report.final_beta.values <= beta0.upper)


def test_convergence_flag_matches_last_record():
    for name, model, data, _ in corpus():
        ev = DatasetEvaluator(model, data)
        cfg = SolverConfig()
        report = optimize(ev, n_params=model.param_count(data.d), config=cfg)
        last = report.iterations[-1]
        assert (report.status is RunStatus.Converged) == (
            last.max_rel_change < cfg.epsilon
        ), name


def test_truncated_run_flag_matches_last_record():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    cfg = SolverConfig(max_iterations=2)
    report = optimize(ev, n_params=2, config=cfg)
    last = report.iterations[-1]
    assert (report.status is RunStatus.Converged) == (last.max_rel_change < cfg.epsilon)
