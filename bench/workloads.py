"""Inputs and reference solutions for the four benchmark workloads.

The problems (x values, generating parameters, sizes, weights, boxes and
observation noise) are drawn from fixed seeds; the run's seed draws the
order in which they run.  The program under test only ever sees the
generated datasets, starting points, bounds, weights and spec files.  Reference
solutions are computed separately (:func:`reference`), after the timed
runs, so they cost neither set-up time nor peak memory of the measured
phase.

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``corpus``   - small in-process fits: six models, each plain, weighted,
  box-bounded and in hybrid FD-refresh mode;
* ``tall``     - in-process linear fits, m = 200000, n = 20;
* ``wide``     - in-process linear fits, m = 800, n = 200, default config;
* ``external`` - ``broydenfit fit`` on a run spec whose model is a
  ``serve-model`` child process, m = 10000.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("corpus", "tall", "wide", "external")

# A fit fails when max_j |beta_j - ref_j| / max(|ref_j|, 1) exceeds this.
# The solver stops once its last relative step is below epsilon = 1e-3; a
# linearly converging secant iteration can then still sit several steps'
# worth from the optimum, so ten times epsilon separates "converged to the
# least-squares solution" from "stopped somewhere else" with room to spare.
TOLERANCE = 1e-2

# Hybrid corpus variant: rebuild the secant matrix by FD every this many
# iterations, so a typical 10-30 iteration small fit refreshes 2-6 times.
HYBRID_PERIOD = 5

CORPUS_MODELS = (
    ("linear", None),
    ("quadratic", 2),
    ("cubic", 3),
    ("quintic", 5),
    ("exponential-decay", None),
    ("logistic", None),
)
CORPUS_VARIANTS = ("plain", "weighted", "bounded", "hybrid")
CORPUS_DATASETS_PER_MODEL = 32
TALL_M, TALL_N, TALL_DATASETS = 200_000, 20, 8
WIDE_M, WIDE_N, WIDE_DATASETS = 800, 200, 8
EXTERNAL_M, EXTERNAL_DATASETS = 10_000, 4
EXTERNAL_MODELS = (
    ("exponential-decay", None),
    ("logistic", None),
    ("cubic", 3),
    ("quintic", 5),
)
# The external models share one sampling grid, as the outputs of one
# simulator would; on it the quintic's monomials span five decades.
EXTERNAL_SPAN = (0.0, 5.0)
# Observation noise of the one-variable models (amplitudes are 1-5).  At
# 0.05 the noise draw flipped whether some corpus fits stall, and the mean
# call count spread 13 % between seeds; at 0.005 it spreads 8 %.
NOISE = 0.005
LINEAR_NOISE = 0.1
# Fixed, so that every seed fits the same problems; the run's seed draws
# only their order.  The solver's call count and its pass or fail depend
# on the data: with seeded designs the call counts of corpus and tall
# spread 6-8 % between seeds, and with seeded noise alone the number of
# failed corpus fits ranged from 165 to 246 in 2304.
DESIGN_SEED = 20220308
NOISE_SEED = 20220309
# scipy's lm needs 1.4 s per tall problem (FD Jacobians of a 200000 x 20
# system), so the call-count reference runs on these problems only.
SCIPY_PROBLEMS = {"tall": ("tall#0", "tall#1")}


@dataclass
class Problem:
    """One fit the benchmark runs repeatedly; the program sees only inputs."""

    name: str
    model: str                      # model label, e.g. "cubic"
    kind: str                       # broydenfit model kind
    degree: int | None
    x: np.ndarray                   # (m, d)
    y: np.ndarray
    truth: np.ndarray               # generating parameters
    weights: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    fd_refresh_period: int | None = None
    # Filled in by build(): the objects handed to the program.
    call: dict = field(default_factory=dict)
    argv: list | None = None        # external workload: cli.main arguments

    @property
    def n(self) -> int:
        return self.truth.size


# ---------------------------------------------------------------------------
# Generation


def _predict(kind: str, x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return beta[0] + x @ beta[1:]
    if kind == "polynomial":
        return np.polynomial.polynomial.polyval(x[:, 0], beta)
    if kind == "exponential-decay":
        return beta[0] * np.exp(-beta[1] * x[:, 0])
    return beta[0] / (1.0 + np.exp(-beta[1] * x[:, 0]))


def _draw_univariate(rng, label: str, degree: int | None, m: int, span=None):
    """x grid and generating parameters for a one-variable model.

    ``span`` overrides the model's own x range.
    """
    if label == "exponential-decay":
        x = rng.uniform(0.0, 5.0, m)
        truth = np.array([rng.uniform(1.0, 5.0), rng.uniform(0.2, 1.5)])
    elif label == "logistic":
        x = rng.uniform(-5.0, 5.0, m)
        truth = np.array([rng.uniform(1.0, 5.0), rng.uniform(0.5, 2.0)])
    elif label == "linear":
        x = rng.uniform(0.0, 2.0, m)
        truth = rng.normal(0.0, 2.0, 2)
    else:
        x = rng.uniform(-1.0, 1.0, m)
        truth = rng.normal(0.0, 1.0, degree + 1)
    if span is not None:
        x = rng.uniform(*span, m)
    return np.sort(x)[:, None], truth


def _kind(label: str) -> str:
    return "polynomial" if label in ("quadratic", "cubic", "quintic") else label


def _univariate_problem(design, noise, name, label, degree, m, span=None) -> Problem:
    kind = _kind(label)
    x, truth = _draw_univariate(design, label, degree, m, span)
    y = _predict(kind, x, truth) + noise.normal(0.0, NOISE, m)
    return Problem(name, label, kind, degree, x, y, truth)


def _linear_problem(design, noise, name, m, n) -> Problem:
    # Unit-magnitude coefficients with random signs keep the call count
    # steady (Gaussian coefficients spread it twice as wide).
    x = design.uniform(-1.0, 1.0, (m, n - 1))
    truth = design.choice([-1.0, 1.0], n)
    y = truth[0] + x @ truth[1:] + noise.normal(0.0, LINEAR_NOISE, m)
    return Problem(name, "linear", "linear", None, x, y, truth)


def generate(workload: str, seed: int) -> list[Problem]:
    """The workload's problem list for ``seed``; order is the run order.

    The design (x, generating parameters, sizes, weights, boxes) is drawn
    from ``DESIGN_SEED`` and the observation noise from ``NOISE_SEED``, so
    every seed fits the same problems; ``seed`` shuffles their order.
    """
    w = WORKLOADS.index(workload)
    design = np.random.default_rng([DESIGN_SEED, w])
    noise = np.random.default_rng([NOISE_SEED, w])
    problems: list[Problem] = []
    if workload == "corpus":
        for i in range(CORPUS_DATASETS_PER_MODEL):
            for label, degree in CORPUS_MODELS:
                m = int(design.integers(20, 51))
                base = _univariate_problem(design, noise, f"{label}#{i}", label,
                                           degree, m)
                weights = design.uniform(0.5, 2.0, m)
                # Boxes contain the start (zero) and the generating point with
                # a margin of at least 2; the least-squares solution nearly
                # always lies inside (reference() handles the exceptions).
                margin = 2.0 + np.abs(base.truth)
                lower = np.minimum(0.0, base.truth) - margin
                upper = np.maximum(0.0, base.truth) + margin
                for variant in CORPUS_VARIANTS:
                    p = Problem(f"{base.name}/{variant}", label, base.kind, degree,
                                base.x, base.y, base.truth)
                    if variant == "weighted":
                        p.weights = weights
                    elif variant == "bounded":
                        p.lower, p.upper = lower, upper
                    elif variant == "hybrid":
                        p.fd_refresh_period = HYBRID_PERIOD
                    problems.append(p)
    elif workload == "tall":
        problems = [_linear_problem(design, noise, f"tall#{i}", TALL_M, TALL_N)
                    for i in range(TALL_DATASETS)]
    elif workload == "wide":
        problems = [_linear_problem(design, noise, f"wide#{i}", WIDE_M, WIDE_N)
                    for i in range(WIDE_DATASETS)]
    elif workload == "external":
        for i in range(EXTERNAL_DATASETS):
            for label, degree in EXTERNAL_MODELS:
                problems.append(_univariate_problem(
                    design, noise, f"{label}#{i}", label, degree, EXTERNAL_M,
                    EXTERNAL_SPAN))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = np.random.default_rng([seed, w]).permutation(len(problems))
    return [problems[i] for i in order]


# ---------------------------------------------------------------------------
# Binding inputs to the program


def build(workload: str, seed: int, workdir: str) -> list[Problem]:
    """Generate the inputs and turn them into what the program receives.

    This is the user-visible set-up besides ``import broydenfit``: datasets
    and solver objects for in-process fits, dataset and run-spec files for
    the external workload.  Must run after ``broydenfit`` is importable.
    """
    import broydenfit as bf

    problems = generate(workload, seed)
    for p in problems:
        if workload == "external":
            p.argv = _write_external(p, workdir)
            continue
        dataset = bf.Dataset(x=p.x, y=p.y)
        # Keep only the program's copies; the references read them later.
        p.x, p.y = dataset.x, dataset.y
        evaluator = bf.DatasetEvaluator(bf.make_model(p.kind, p.degree), dataset)
        call = {"evaluator": evaluator}
        if p.lower is not None:
            call["beta0"] = bf.Parameters(np.zeros(p.n), p.lower, p.upper)
        else:
            call["n_params"] = p.n
        if p.weights is not None:
            call["weights"] = p.weights
        if p.fd_refresh_period is not None:
            call["config"] = bf.SolverConfig(fd_refresh_period=p.fd_refresh_period)
        p.call = call
    return problems


def _write_external(p: Problem, workdir: str) -> list[str]:
    stem = os.path.join(workdir, p.name.replace("#", "-"))
    with open(stem + ".csv", "w") as fh:
        fh.write("x1,y\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(p.x[:, 0].tolist(), p.y.tolist()))
    model = {"kind": p.kind}
    if p.degree is not None:
        model["degree"] = p.degree
    with open(stem + ".model.json", "w") as fh:
        json.dump({"model": model, "dataset": os.path.basename(stem) + ".csv"}, fh)
    # The child is this interpreter running the package from the checkout's
    # src/ (PYTHONPATH is set by run.py), never an installed copy.
    command = [sys.executable, "-m", "broydenfit", "serve-model",
               "--spec", stem + ".model.json"]
    with open(stem + ".run.json", "w") as fh:
        json.dump({"model": {"command": command, "timeout": 120}, "n_params": p.n}, fh)
    return ["fit", "--spec", stem + ".run.json", "--out", stem + ".report.json"]


def report_path(p: Problem) -> str:
    return p.argv[p.argv.index("--out") + 1]


# ---------------------------------------------------------------------------
# References (computed after the timed runs)


def _residual_fn(p: Problem):
    sw = None if p.weights is None else np.sqrt(p.weights)

    def fn(beta):
        r = p.y - _predict(p.kind, p.x, beta)
        return r if sw is None else sw * r

    return fn


def reference(p: Problem) -> tuple[np.ndarray, bool]:
    """The (weighted) least-squares solution the fit is judged against.

    Exact ``lstsq`` for models linear in their parameters; scipy ``lm`` at
    tight tolerances, started from the generating parameters, otherwise.
    When that solution leaves a bounded problem's box, the box-constrained
    optimum (scipy ``trf``) replaces it.  Returns ``(solution, on_bound)``.
    """
    import scipy.optimize  # not part of the user's set-up

    tight = {"xtol": 1e-15, "ftol": 1e-15, "gtol": 1e-15}
    sw = np.ones(p.y.size) if p.weights is None else np.sqrt(p.weights)
    if p.kind == "linear":
        design = np.column_stack([np.ones(p.y.size), p.x])
    elif p.kind == "polynomial":
        design = np.polynomial.polynomial.polyvander(p.x[:, 0], p.degree)
    else:
        design = None
    if design is None:
        ref = scipy.optimize.least_squares(
            _residual_fn(p), p.truth, method="lm", **tight).x
    else:
        ref = np.linalg.lstsq(sw[:, None] * design, sw * p.y, rcond=None)[0]
    if p.lower is None or ((ref > p.lower).all() and (ref < p.upper).all()):
        return ref, False
    start = np.clip(ref, p.lower, p.upper)
    start = np.where(start == p.lower, np.nextafter(p.lower, np.inf), start)
    start = np.where(start == p.upper, np.nextafter(p.upper, -np.inf), start)
    sol = scipy.optimize.least_squares(
        _residual_fn(p), start, method="trf", bounds=(p.lower, p.upper), **tight)
    return sol.x, True


def scipy_wanted(workload: str, p: Problem) -> bool:
    """Whether the scipy call-count reference runs on ``p``."""
    return workload not in SCIPY_PROBLEMS or p.name in SCIPY_PROBLEMS[workload]


def deviation(beta: np.ndarray, ref: np.ndarray) -> float:
    """max_j |beta_j - ref_j| / max(|ref_j|, 1)."""
    return float(np.max(np.abs(beta - ref) / np.maximum(np.abs(ref), 1.0)))


def scipy_lm(p: Problem, ref: np.ndarray) -> dict:
    """scipy ``least_squares(method="lm")`` from the same zero start.

    Calls are counted by a wrapper, so FD Jacobian probes are included
    (scipy's own ``nfev`` leaves them out).  ``lm`` has no bounds, so the
    bounded variant runs unbounded.
    """
    import scipy.optimize

    fn = _residual_fn(p)
    calls = 0

    def counted(beta):
        nonlocal calls
        calls += 1
        return fn(beta)

    sol = scipy.optimize.least_squares(counted, np.zeros(p.n), method="lm")
    dev = deviation(sol.x, ref)
    return {"evals": calls, "success": bool(sol.success), "deviation": dev,
            "failed": not sol.success or not dev <= TOLERANCE}
