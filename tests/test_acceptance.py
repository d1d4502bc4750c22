"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from broydenfit import (
    Dataset,
    DatasetEvaluator,
    EvaluatorFailure,
    ExponentialDecayModel,
    ExternalEvaluator,
    ExternalEvaluatorSpec,
    FdConfig,
    LinearModel,
    Parameters,
    RunStatus,
    SolverConfig,
    optimize,
)
from broydenfit.core import (
    assemble_lm_system,
    broyden_update,
    check_convergence,
    max_relative_change,
    perturb_initial,
    weighted_norm,
)
from broydenfit.dataio import load_runspec, prepare_run
from broydenfit.fdiff import fd_jacobian
from broydenfit.linalg import solve

from conftest import (
    analytic_jacobian,
    brute_force_minimum,
    corpus,
    decay_dataset,
    linear_dataset,
)


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_zero_start_robustness():
    with criterion(1, "zero-start runs recover generating parameters to 1e-4"):
        problems = [
            (LinearModel(), linear_dataset(), np.array([1.0, 2.0])),
            (ExponentialDecayModel(), decay_dataset(20), np.array([2.5, 1.3])),
        ]
        for model, data, truth in problems:
            ev = DatasetEvaluator(model, data)
            start = time.perf_counter()
            report = optimize(ev, n_params=2, config=SolverConfig(epsilon=1e-3))
            elapsed = time.perf_counter() - start
            assert report.status is RunStatus.Converged
            rel = np.abs(report.final_beta.values - truth) / np.abs(truth)
            assert np.max(rel) <= 1e-4
            assert elapsed < 1.0


def test_criterion_2_secant_condition_1000_triples():
    with criterion(2, "secant condition holds on 1000 randomized updates"):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, m + 1))
            b = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4)
            s = rng.standard_normal(n)
            t = rng.standard_normal(m)
            if float(s @ s) < 1e-30:
                continue
            checked += 1
            b_new = broyden_update(b, s, t)
            bound = 4 * eps * (
                np.linalg.norm(t) + np.linalg.norm(b, "fro") * np.linalg.norm(s)
            )
            assert np.linalg.norm(b_new @ s - t) <= bound


def test_criterion_3_armijo_enforcement_on_regressions():
    with criterion(3, "accepted steps strictly decrease the residual norm"):
        for name, model, data, _ in corpus():
            cfg = SolverConfig()
            ev = DatasetEvaluator(model, data)
            n = model.param_count(data.d)
            report = optimize(ev, n_params=n, config=cfg)
            assert report.iterations, name
            start = perturb_initial(Parameters(np.zeros(n)), cfg)
            prev_norm = weighted_norm(ev(start.values))
            for i, rec in enumerate(report.iterations):
                if rec.armijo_satisfied:
                    assert rec.residual_norm < prev_norm, name
                else:
                    # Rejected floor trial: iterate unchanged, damping raised.
                    assert rec.residual_norm == prev_norm, name
                    if i + 1 < len(report.iterations):
                        nxt = report.iterations[i + 1]
                        assert nxt.lam == pytest.approx(
                            min(rec.lam * cfg.lambda_increase, 1e12)
                        ), name
                assert rec.residual_norm <= prev_norm, name
                prev_norm = rec.residual_norm


def test_criterion_4_convergence_criterion_fidelity():
    with criterion(4, "relative-change stop rule matches its contract"):
        cfg = SolverConfig()  # epsilon = 1e-3
        cases = [
            (np.array([1e-5, 1e-5]), Parameters([1.0, 1.0]), True),
            (np.array([0.1, 1e-5]), Parameters([1.0, 1.0]), False),
            (np.array([1e-4]), Parameters([0.0]), True),   # zero-beta guard
            (np.array([1e-2]), Parameters([0.0]), False),
            (np.array([9.9e-4]), Parameters([1.0]), True),
            (np.array([1e-3]), Parameters([1.0]), False),  # strict inequality
            (np.array([4e-4, 0.0]), Parameters([0.5, 0.0]), True),  # 8e-4 relative
            (np.array([0.0, 0.0]), Parameters([0.0, 123.0]), True),
        ]
        for p, beta, expected in cases:
            assert check_convergence(p, beta, cfg) is expected
            denom = np.where(beta.values != 0.0, np.abs(beta.values), 1.0)
            assert max_relative_change(p, beta.values) == np.max(np.abs(p) / denom)


def test_criterion_5_damping_limits():
    with criterion(5, "damping extremes match gradient-descent and Gauss-Newton"):
        # Gradient-descent limit at lambda = 1e8 (non-degenerate draws only:
        # a vanishing gradient coordinate has no meaningful relative error).
        rng = np.random.default_rng(77)
        lam = 1e8
        kept = 0
        while kept < 25:
            m, n = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            b = rng.standard_normal((m, n))
            r = rng.standard_normal(m)
            g = b.T @ r
            gram = b.T @ b
            if np.min(np.abs(g)) < 0.05 * np.max(np.abs(g)) or np.min(np.diag(gram)) < 0.3:
                continue
            kept += 1
            p = solve(*assemble_lm_system(b, r, lam))
            expected = -g / (lam * np.diag(gram))
            assert np.max(np.abs(p - expected) / np.abs(expected)) < 1e-6

        # Gauss-Newton limit: lambda = 0 with the exact Jacobian of a linear
        # model reaches the normal-equations solution in one full step.
        data = linear_dataset()
        model = LinearModel()
        design = np.column_stack([np.ones(data.m), data.x[:, 0]])
        target, *_ = np.linalg.lstsq(design, data.y, rcond=None)
        for beta in (np.array([0.0, 0.0]), np.array([5.0, -3.0])):
            jac = analytic_jacobian(model, data, beta)
            r = DatasetEvaluator(model, data)(beta)
            p = solve(*assemble_lm_system(jac, r, 0.0))
            landed = beta + p
            assert np.linalg.norm(landed - target) <= 1e-10 * np.linalg.norm(target)


def test_criterion_6_weighting_consistency():
    with criterion(6, "identity weights reproduce the unweighted run; scale cancels"):
        ev = DatasetEvaluator(LinearModel(), linear_dataset())
        plain = optimize(ev, n_params=2)
        unit = optimize(ev, n_params=2, weights=np.ones(3))
        assert len(plain.iterations) == len(unit.iterations)
        for a, b in zip(plain.iterations, unit.iterations):
            assert np.max(np.abs(a.beta - b.beta)) <= 1e-12
            for field in ("residual_norm", "objective", "lam", "alpha",
                          "p_norm", "max_rel_change"):
                diff = abs(getattr(a, field) - getattr(b, field))
                assert diff <= 1e-12 * max(1.0, abs(getattr(a, field)))
            assert a.armijo_satisfied == b.armijo_satisfied
        assert np.max(np.abs(plain.final_beta.values - unit.final_beta.values)) <= 1e-12

        rng = np.random.default_rng(5)
        b = rng.standard_normal((8, 3))
        r = rng.standard_normal(8)
        w = rng.uniform(0.2, 5.0, size=8)
        p1 = solve(*assemble_lm_system(b, r, 0.7, w))
        p2 = solve(*assemble_lm_system(b, r, 0.7, 2.0 * w))
        assert np.max(np.abs(p2 - p1)) <= 1e-12 * np.max(np.abs(p1))


def test_criterion_7_finite_difference_oracle():
    with criterion(7, "central differences match analytic Jacobians; error is O(h^2)"):
        rng = np.random.default_rng(31)
        for name, model, data, _ in corpus():
            ev = DatasetEvaluator(model, data)
            n = model.param_count(data.d)
            for _ in range(3):
                beta = rng.uniform(0.5, 2.0, size=n)
                jac = fd_jacobian(ev, beta, FdConfig(scheme="central"))
                exact = analytic_jacobian(model, data, beta)
                assert np.max(np.abs(jac - exact)) <= 1e-6, name

        # Order of accuracy, measured where the truncation term is nonzero
        # (for a parameter-quadratic model the central quotient is exact, so
        # the decay model carries the scaling check; see the notes ledger).
        data = decay_dataset()
        model = ExponentialDecayModel()
        ev = DatasetEvaluator(model, data)
        beta = np.array([2.1, 0.9])
        exact = analytic_jacobian(model, data, beta)
        steps = [1e-2 * 0.5**i for i in range(5)]
        errors = [
            np.max(np.abs(fd_jacobian(ev, beta, FdConfig("central", h_rel=h)) - exact))
            for h in steps
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 4.0 / 1.5 <= coarse / fine <= 4.0 * 1.5

        # Parameter-quadratic single-datum model: only round-off remains.
        quad = lambda beta: np.array([1.0 - beta[0] ** 2])
        jac = fd_jacobian(quad, np.array([3.0]), FdConfig(scheme="central"))
        assert abs(jac[0, 0] - (-6.0)) <= 1e-8


def test_criterion_8_brute_force_oracle_agreement():
    with criterion(8, "converged objectives do not exceed grid minima"):
        boxes = {
            "linear": [(0.0, 4.0), (0.0, 4.0)],
            "polynomial": [(-2.0, 2.0), (-3.0, 1.0)],
            "exponential-decay": [(0.0, 4.0), (0.0, 4.0)],
            "logistic": [(0.0, 4.0), (0.0, 4.0)],
        }
        for name, model, data, truth in corpus():
            n = model.param_count(data.d)
            assert n <= 2, name
            ev = DatasetEvaluator(model, data)
            report = optimize(ev, n_params=n)
            assert report.status is RunStatus.Converged, name
            box = boxes[name]
            node, grid_min = brute_force_minimum(ev, box, 101)
            # Grid-resolution slack: first-order model of the objective
            # change across half a grid cell around the converged point.
            jac = fd_jacobian(ev, report.final_beta.values)
            half_cell = np.array([(hi - lo) / 100 / 2 for lo, hi in box])
            slack = 0.5 * (np.linalg.norm(jac, "fro") * np.linalg.norm(half_cell)) ** 2
            assert report.final_objective <= grid_min + max(slack, 1e-12), name


CHILD_DIE = "import sys; sys.exit(2)"
CHILD_SLEEP = "import sys, time; sys.stdin.readline(); time.sleep(60)"
CHILD_GARBAGE = "import sys; sys.stdin.readline(); print('nonsense', flush=True)"
CHILD_SHRINK = """
import json, sys
n = 3
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"v": 1, "id": req["id"], "residuals": [0.5] * n}), flush=True)
    n = 2
"""


def test_criterion_9_black_box_coupling(tmp_path):
    with criterion(9, "self-coupled run is bit-identical; failures are categorized"):
        (tmp_path / "data.csv").write_text("x1,y\n0,1\n1,3\n2,5\n")
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(
            {"model": {"kind": "linear"}, "dataset": "data.csv"}
        ))
        setup = prepare_run(load_runspec(spec_path), base_dir=str(tmp_path))
        in_process = optimize(setup.evaluate, setup.beta0, setup.config)

        command = (sys.executable, "-m", "broydenfit", "serve-model",
                   "--spec", str(spec_path))
        with ExternalEvaluator(ExternalEvaluatorSpec(command=command)) as ev:
            coupled = optimize(ev, setup.beta0, setup.config)

        assert coupled.status is in_process.status
        assert coupled.evaluation_count == in_process.evaluation_count
        assert len(coupled.iterations) == len(in_process.iterations)
        for a, b in zip(in_process.iterations, coupled.iterations):
            assert np.array_equal(a.beta, b.beta)  # bit-for-bit
            assert a.residual_norm == b.residual_norm
            assert a.objective == b.objective
            assert (a.lam, a.alpha, a.p_norm, a.max_rel_change,
                    a.armijo_satisfied) == (b.lam, b.alpha, b.p_norm,
                                            b.max_rel_change, b.armijo_satisfied)
        assert np.array_equal(coupled.final_beta.values,
                              in_process.final_beta.values)

        failure_modes = [
            (CHILD_DIE, "process_died", 10.0),
            (CHILD_SLEEP, "timeout", 0.3),
            (CHILD_GARBAGE, "malformed_response", 10.0),
        ]
        for script, expected_category, timeout in failure_modes:
            spec = ExternalEvaluatorSpec(command=(sys.executable, "-c", script),
                                         timeout=timeout)
            with ExternalEvaluator(spec) as ev:
                with pytest.raises(EvaluatorFailure) as err:
                    ev(np.array([1.0]))
                assert err.value.category == expected_category
        with ExternalEvaluator(
            ExternalEvaluatorSpec(command=(sys.executable, "-c", CHILD_SHRINK))
        ) as ev:
            ev(np.array([1.0]))
            with pytest.raises(EvaluatorFailure) as err:
                ev(np.array([1.0]))
            assert err.value.category == "length_changed"


def test_criterion_10_hybrid_refresh_matches_exact_jacobian():
    with criterion(10, "per-iteration FD refresh tracks the exact-Jacobian run"):
        data = linear_dataset()
        model = LinearModel()
        ev = DatasetEvaluator(model, data)
        cfg = SolverConfig(fd_refresh_period=1)
        # h_rel sized to the problem scale: near the small bootstrap point the
        # default floor (h = 1e-8) leaves ~1e-8 cancellation noise in the
        # quotient, right at the tolerance; 1e-4 keeps probes comfortably
        # above round-off and the scheme is exact on a linear model anyway.
        report = optimize(ev, n_params=2, config=cfg,
                          fd_config=FdConfig(scheme="central", h_rel=1e-4))
        assert report.status is RunStatus.Converged

        # Reference trajectory: identical loop driven by the analytic
        # (exact, constant) Jacobian instead of finite differences.
        jac = analytic_jacobian(model, data, np.zeros(2))
        beta = perturb_initial(Parameters(np.zeros(2)), cfg)
        r = ev(beta.values)
        lam = cfg.lambda_init
        reference = []
        for _ in range(len(report.iterations)):
            p = solve(*assemble_lm_system(jac, r, lam))
            alpha = 1.0
            r_new = ev(beta.values + alpha * p)
            while weighted_norm(r_new) > weighted_norm(r) + cfg.armijo_c * alpha * float(
                (jac.T @ r) @ p
            ) and alpha * 0.5 > cfg.alpha_min:
                alpha *= 0.5
                r_new = ev(beta.values + alpha * p)
            beta = beta.with_values(beta.values + alpha * p)
            r = r_new
            lam = max(lam * cfg.lambda_decrease, 1e-12)
            reference.append(beta.values.copy())
            if max_relative_change(p, beta.values) < cfg.epsilon:
                break

        assert len(reference) == len(report.iterations)
        for rec, ref in zip(report.iterations, reference):
            assert np.max(np.abs(rec.beta - ref)) <= 1e-8
