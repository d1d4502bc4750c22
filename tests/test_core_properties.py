import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from broydenfit import (
    ConfigError,
    Dataset,
    DatasetEvaluator,
    EvaluatorFailure,
    ExponentialDecayModel,
    LinearModel,
    Parameters,
    PolynomialModel,
    RunStatus,
    SolverConfig,
    optimize,
)
from broydenfit.core import (
    armijo_holds,
    assemble_lm_system,
    backtrack,
    broyden_update,
    constrain_step,
    perturb_initial,
    solve_free,
    weighted_norm,
)
from broydenfit.fdiff import EPS, TINY
from broydenfit.linalg import solve

from conftest import CountingEvaluator, analytic_jacobian, corpus, linear_dataset

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


@st.composite
def boxed_coordinates(draw):
    """A coordinate, zero, subnormal or up to 1e300 in size, and a box around
    it: unbounded, on a bound, or a random one."""
    special = [0.0, -0.0, TINY, -TINY, 1e-310, -2.2e-308, 1e300, -1e300]
    v = draw(st.sampled_from(special) | st.floats(-1e300, 1e300))
    lo = draw(st.sampled_from([-np.inf, v]) | st.floats(-1e300, v))
    hi = draw(st.sampled_from([np.inf, v]) | st.floats(v, 1e300))
    return v, lo, hi


@given(st.lists(boxed_coordinates(), min_size=1, max_size=4),
       st.floats(EPS, 1e3) | st.just(EPS), st.floats(TINY, 1e3) | st.just(TINY))
@settings(max_examples=500, deadline=None)
def test_bootstrap_moves_every_coordinate_inside_its_box(coordinates, rel, ab):
    v, lo, hi = map(np.array, zip(*coordinates))
    if not (lo < hi).all():
        return
    if ab < rel * TINY:  # ab / rel would underflow to a zero step at zero
        with pytest.raises(ConfigError):
            SolverConfig(perturbation_rel=rel, perturbation_abs=ab)
        return
    cfg = SolverConfig(perturbation_rel=rel, perturbation_abs=ab)
    out = perturb_initial(Parameters(v, lo, hi), cfg).values
    assert (out != v).all()
    assert (out >= lo).all() and (out <= hi).all()
    # Away from zero (up from zero itself), unless the box has more room
    # the other way.
    away = np.where(v < 0, out < v, out > v)
    room_away = np.where(v < 0, v - lo, hi - v)
    room_back = np.where(v < 0, hi - v, v - lo)
    assert (away | (room_away < room_back)).all()


@st.composite
def boxed_systems(draw):
    """A random SPD system ``a``, a right-hand side and a box whose
    coordinates sit inside, on the lower or on the upper bound."""
    n = draw(st.integers(1, 6))
    unit = st.floats(-10.0, 10.0, allow_nan=False)
    m = np.reshape(draw(st.lists(unit, min_size=n * n, max_size=n * n)), (n, n))
    rhs = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    at = np.array(draw(st.lists(st.sampled_from(["inside", "lower", "upper"]),
                                min_size=n, max_size=n)))
    lower, upper = np.full(n, -1.0), np.full(n, 1.0)
    values = np.where(at == "lower", lower, np.where(at == "upper", upper, 0.0))
    return m @ m.T + np.eye(n), rhs, Parameters(values, lower, upper)


@given(boxed_systems())
@settings(max_examples=300, deadline=None)
def test_constrain_step_solves_the_reduced_system(system):
    a, rhs, beta = system
    pinned = (((beta.values == beta.lower) & (rhs < 0))
              | ((beta.values == beta.upper) & (rhs > 0)))
    assert np.array_equal(constrain_step(beta.values, beta, rhs), pinned)
    p = solve_free(a, rhs, pinned)
    assert np.all(p[pinned] == 0.0)
    free = ~pinned
    if free.any():
        assert p[free].tobytes() == solve(a[np.ix_(free, free)], rhs[free]).tobytes()



@st.composite
def line_searches(draw):
    """A search along p = -1 from 0 whose residuals are quadratic in the step
    a, r(a) = r0 + a u + a^2 w; the secant slope may be phi's own or wrong,
    and a few trials fail to evaluate or overflow the squared norm."""
    m = draw(st.integers(1, 3))
    coefficient = st.floats(-10.0, 10.0)
    r0, u, w = (np.array(draw(st.lists(coefficient, min_size=m, max_size=m)))
                for _ in range(3))
    slope = float(r0 @ u)  # phi'(0), used when it descends and is drawn
    if not (slope < 0.0 and draw(st.booleans())):
        slope = -draw(st.floats(1e-6, 1e3))
    bad = draw(st.dictionaries(st.integers(0, 6), st.sampled_from(["fails", "overflows"]),
                               max_size=3))
    return r0, u, w, slope, bad, draw(st.sampled_from([1e-4, 0.1, 0.5]))


def _no_armijo_step_left(first, second, norm_old, slope, c):
    """The stop rule of ``backtrack`` on two trials (alpha, norm): the
    quadratic through phi(0) and both is convex, and its slope at 0 does not
    descend below the Armijo line."""
    (a1, n1), (a2, n2) = first, second
    d1, d2 = ((0.5 * (n * n - norm_old * norm_old)) / a for a, n in (first, second))
    curvature = (d1 - d2) / (a1 - a2)
    return curvature > 0.0 and d2 - curvature * a2 >= c * slope


@given(line_searches())
@settings(max_examples=300, deadline=None)
def test_every_line_search_ends_in_one_of_three_ways(search):
    r0, u, w, slope, bad, c = search
    config = SolverConfig(armijo_c=c)
    trials = []  # (alpha, norm), norm None for a trial that failed

    def ev(point):
        a, kind = -point[0], bad.get(len(trials))
        if kind == "fails":
            trials.append((a, None))
            raise EvaluatorFailure("boom")
        r = np.full(r0.size, 1e200) if kind == "overflows" else r0 + a * u + a * a * w
        trials.append((a, weighted_norm(r)))
        return r

    box = Parameters([0.0])
    norm_old = weighted_norm(r0)
    with np.errstate(over="ignore"):
        try:
            alpha, trial, r_new, ok = backtrack(box.values, box, np.array([-1.0]), config,
                                                ev, r0, slope)
        except EvaluatorFailure:
            assert all(norm is None for _, norm in trials)
            return
        fitted = [t for t in trials if t[1] is not None
                  and np.isfinite(0.5 * (t[1] * t[1] - norm_old * norm_old))]
    pairs = list(zip(fitted, fitted[1:]))
    rule_ends = pairs and pairs[-1][1] is trials[-1] and _no_armijo_step_left(
        *pairs[-1], norm_old, slope, c)
    # No earlier pair of fitted trials met the rule, or the search would have ended there.
    assert not any(_no_armijo_step_left(*pair, norm_old, slope, c)
                   for pair in pairs[:len(pairs) - bool(rule_ends)])
    assert np.array_equal(trial, [-alpha])
    if ok:  # accepted at the last trial, with Armijo holding there
        assert alpha == trials[-1][0]
        assert armijo_holds(norm_old, weighted_norm(r_new), slope, alpha, c)
        return
    # Rejected: at the floor, where the next step, at least a tenth of the
    # last, would drop to alpha_min, or where the last two fitted trials meet
    # the rule.  The lowest-norm trial is returned, the larger step on a tie.
    assert rule_ends or 0.1 * trials[-1][0] <= config.alpha_min
    norms = [t for t in trials if t[1] is not None]
    assert (alpha, weighted_norm(r_new)) == min(norms, key=lambda t: t[1])

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
    sw = np.sqrt(rng.uniform(0.5, 4.0, size=7))
    p1 = solve(*assemble_lm_system(sw[:, None] * b, sw * r, 0.3))
    sw2 = np.sqrt(2.0) * sw
    p2 = solve(*assemble_lm_system(sw2[:, None] * b, sw2 * r, 0.3))
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


@st.composite
def small_fits(draw):
    """A small linear, polynomial or exponential-decay fit from a zero
    start: random design, truth and noise, optional weights, an optional
    box around the start (which may sit on a bound) and an iteration cap."""
    kind = draw(st.sampled_from(["linear", "polynomial", "exponential-decay"]))
    m = draw(st.integers(3, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "linear":
        x = rng.uniform(-1.0, 2.0, (m, draw(st.integers(1, 2))))
        model = LinearModel()
    elif kind == "polynomial":
        x = rng.uniform(-1.0, 2.0, (m, 1))
        model = PolynomialModel(degree=draw(st.integers(0, 2)))
    else:
        x = rng.uniform(0.0, 3.0, (m, 1))
        model = ExponentialDecayModel()
    n = model.param_count(x.shape[1])
    truth = rng.uniform(0.2, 2.5, n)
    y = model.predict(x, truth) + 0.05 * rng.standard_normal(m)
    weights = rng.uniform(0.5, 2.0, m) if draw(st.booleans()) else None
    if draw(st.booleans()):
        beta0 = Parameters(np.zeros(n), lower=-rng.choice([0.0, 0.5, 3.0], n),
                           upper=rng.choice([0.5, 1.0, 3.0], n))
    else:
        beta0 = Parameters(np.zeros(n))
    cap = draw(st.sampled_from([SolverConfig().max_iterations, 5, 2]))
    return DatasetEvaluator(model, Dataset(x=x, y=y)), beta0, weights, cap


@given(small_fits())
@settings(max_examples=60, deadline=None)
def test_run_invariants(fit):
    evaluator, beta0, weights, cap = fit
    cfg = SolverConfig(max_iterations=cap)
    ev = CountingEvaluator(evaluator)
    report = optimize(ev, beta0, cfg, weights=weights)
    records = report.iterations
    assert report.evaluation_count == ev.count

    # The norm never grows: an accepted step does not raise it, a rejected
    # one keeps it.  The run starts from the bootstrap's perturbed point.
    sw = 1.0 if weights is None else np.sqrt(weights)
    prev = weighted_norm(sw * evaluator(perturb_initial(beta0, cfg).values))
    for rec in records:
        assert np.all(rec.beta >= beta0.lower) and np.all(rec.beta <= beta0.upper)
        if rec.armijo_satisfied:
            assert rec.residual_norm <= prev
        else:
            assert rec.residual_norm == prev
        prev = rec.residual_norm

    if not records:
        assert report.status is not RunStatus.Converged
        return
    last = records[-1]
    assert report.final_objective == last.objective
    assert (report.status is RunStatus.Converged) == (last.max_rel_change < cfg.epsilon)
    # MaxIterations exactly when the cap's records are there, unless the
    # last of them also ended the run another way: converged, or no
    # decrease at the damping cap.
    if report.status is RunStatus.MaxIterations:
        assert len(records) == cap
    elif len(records) == cap:
        assert (report.status is RunStatus.Converged
                or report.failure_reason.endswith("no sufficient-decrease step at damping cap"))
