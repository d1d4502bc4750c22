#!/usr/bin/env python3
"""Fitting benchmark for broydenfit.

    python3 bench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Each workload is a closed loop: one fit at a time, the next starting when
the last returns, in whole passes over the workload's problems.  The
number of passes follows from ``--seconds`` alone (see ``PASS_SECONDS``),
so a run does the same fits whatever the machine's speed and takes about
``--seconds`` seconds on the machine described in ``bench/NOTES.md``.  A
traced run makes one pass.  The seed only orders the problems.  Times are
reported in reference seconds, scaled by a kernel timed between fits (see
``calibrate.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
fuller record, including the environment, the measured seconds and, for
traced runs, the scipy reference, goes to
``bench/results/<workload>-seed<seed>-trace<t>.json``.

A broken harness invariant (call counter versus the report, objective
identity, traced versus untraced behaviour, repeat determinism, a leftover
child process) aborts the run with exit code 3 and no result line.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported here or in any child process.
THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = THREADS
os.environ["OMP_NUM_THREADS"] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
WORK = os.path.join(BENCH, "_work")

# Set-up is timed this many times in child processes, plus once in-process.
SETUP_PROBES = 6
# Spans written to the results directory per traced run (all are summarised).
SAVED_SPANS = 200_000


class HarnessError(RuntimeError):
    """A harness invariant broke; the run's numbers cannot be trusted."""


@dataclass
class Fit:
    problem: int          # index into the workload's problem list
    wall: float           # seconds from the call into the program to its return
    eval_s: float         # seconds inside the residual callable
    calls: int            # residual-callable calls seen by the benchmark
    evaluations: int      # report.evaluation_count (calls, if the fit raised)
    iterations: int = 0
    status: str = "raised"
    beta: tuple = ()
    error: str | None = None
    end: float = float("nan")  # perf_counter() when the fit returned


class Meter:
    """Counts and times calls into the residual callable, from outside."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def wrap(self, fn, count: bool = True):
        def metered(*args):
            if count:
                self.calls += 1
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds += perf_counter() - t0

        return metered


# ---------------------------------------------------------------------------
# Set-up


def _use_checkout_src() -> None:
    if not os.path.isfile(os.path.join(SRC, "broydenfit", "__init__.py")):
        raise SystemExit(f"error: no broydenfit package under {SRC}")
    sys.path.insert(0, SRC)
    # serve-model children must run the same code.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def setup(workload: str, seed: int, workdir: str):
    """What a user pays once: import the package, build the inputs."""
    t0 = perf_counter()
    import broydenfit
    if workload == "external":
        import broydenfit.cli  # noqa: F401
    import workloads

    problems = workloads.build(workload, seed, workdir)
    elapsed = perf_counter() - t0
    if not os.path.abspath(broydenfit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported broydenfit from {broydenfit.__file__}")
    return problems, elapsed


def probe_setup(workload: str, seed: int) -> float:
    """Time the set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# One fit


def fit_inprocess(p, meter: Meter, tracer=None) -> tuple[float, object]:
    from broydenfit import core

    call = dict(p.call)
    evaluator = meter.wrap(call.pop("evaluator"))
    if tracer is not None:
        evaluator = tracer.wrap("evaluator", evaluator)
    t0 = perf_counter()
    report = core.optimize(evaluator, **call)
    return perf_counter() - t0, report


def fit_external(p, meter: Meter, tracer=None) -> tuple[float, object]:
    from broydenfit import cli, dataio

    import workloads

    out = workloads.report_path(p)
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(p.argv)
        wall = perf_counter() - t0
    leftover = live_children()
    if leftover:
        raise HarnessError(f"{p.name}: child processes still alive: {leftover}")
    report = dataio.read_report(out)
    if code != cli.STATUS_EXIT[report.status]:
        raise HarnessError(f"{p.name}: exit code {code} but status {report.status.value}")
    return wall, report


def live_children() -> list[int]:
    """Processes whose parent is this one (running or unreaped)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def run_fit(runner, index: int, p, meter: Meter, tracer=None, fit_id: int = -1) -> Fit:
    calls0, secs0 = meter.calls, meter.seconds
    try:
        if tracer is None:
            wall, report = runner(p, meter)
        else:
            with tracer.installed(), tracer.fit_span(fit_id):
                wall, report = runner(p, meter, tracer)
    except HarnessError:
        raise
    except Exception as exc:  # a fit that raises counts as failed
        calls = meter.calls - calls0
        return Fit(index, float("nan"), float("nan"), calls, calls,
                   error=f"{type(exc).__name__}: {exc}")
    fit = Fit(index, wall, meter.seconds - secs0, meter.calls - calls0,
              report.evaluation_count, len(report.iterations), report.status.value,
              tuple(report.final_beta.values.tolist()))
    if fit.calls != report.evaluation_count:
        raise HarnessError(f"{p.name}: benchmark counted {fit.calls} calls, "
                           f"report says {report.evaluation_count}")
    # objective == 0.5 * residual_norm**2 bit for bit, with the square taken
    # as the correctly rounded product: Python's ** goes through libm pow,
    # which can be one ulp off (e.g. for 6.5753519016722946).
    for rec in report.iterations:
        if rec.objective != 0.5 * (rec.residual_norm * rec.residual_norm):
            raise HarnessError(f"{p.name}: iteration {rec.k} objective "
                               f"{rec.objective!r} != 0.5*{rec.residual_norm!r}**2")
    return fit


# ---------------------------------------------------------------------------
# Timed phases


# Seconds one untraced pass over each workload's problems takes on the
# machine described in NOTES.md.  A run makes round(--seconds / this)
# passes, at least one: the work done, and so ``attempted`` and
# ``failed``, depends on the arguments only, never on the clock.
PASS_SECONDS = {"corpus": 5.0, "tall": 14.0, "wide": 5.5, "external": 20.0}


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def measure(problems, runner, n_passes: int, meter: Meter, cal):
    """Closed loop of ``n_passes`` whole passes over the problem list.

    The calibration kernel runs between fits, never inside one.
    """
    fits = []
    for _ in range(n_passes):
        for i, p in enumerate(problems):
            cal.tick()
            fit = run_fit(runner, i, p, meter)
            fit.end = perf_counter()
            fits.append(fit)
    cal.sample()
    return fits


def measure_traced(problems, runner, meter: Meter, tracer, cal):
    """One pass; each fit runs untraced, then traced, and the two must agree."""
    fits, traced = [], []
    for index, p in enumerate(problems):
        cal.tick()
        u = run_fit(runner, index, p, meter)
        t = run_fit(runner, index, p, meter, tracer, fit_id=len(traced))
        if (t.evaluations, t.status, t.beta, t.error) != (
                u.evaluations, u.status, u.beta, u.error):
            raise HarnessError(f"{p.name}: traced fit differs from untraced "
                               f"({t.evaluations} vs {u.evaluations} evaluations, "
                               f"{t.status} vs {u.status})")
        fits.append(u)
        traced.append(t)
    cal.sample()
    return fits, traced


# ---------------------------------------------------------------------------
# Checking and metrics


def judge(workload, problems, fits, workloads,
          with_scipy: bool) -> tuple[list[dict], set[int]]:
    """Reference, pass/fail and optionally the scipy run of every problem."""
    import numpy as np

    used = sorted({f.problem for f in fits})
    rows, failed = [], set()
    for idx in used:
        p = problems[idx]
        ref, on_bound = workloads.reference(p)
        runs = [f for f in fits if f.problem == idx]
        counts = {f.evaluations for f in runs}
        if len(counts) != 1 or len({(f.status, f.beta) for f in runs}) != 1:
            raise HarnessError(f"{p.name}: repeated fits disagree ({sorted(counts)})")
        first = runs[0]
        if first.error is not None:
            dev = float("nan")
        else:
            dev = workloads.deviation(np.array(first.beta), ref)
        bad = first.error is not None or first.status != "Converged" or not (
            dev <= workloads.TOLERANCE)
        if bad:
            failed.add(idx)
        rows.append({
            "problem": p.name, "model": p.model, "m": int(p.y.size), "n": p.n,
            "reference_on_bound": on_bound,
            "evaluations": first.evaluations, "iterations": first.iterations,
            "status": first.status,
            "error": first.error, "deviation": dev, "failed": bad,
            "fits": len(runs),
            "fit_s_median": statistics.median(f.wall for f in runs),
            "scipy": (workloads.scipy_lm(p, ref)
                      if with_scipy and workloads.scipy_wanted(workload, p)
                      else None),
        })
    return rows, failed


# The tail percentile is fixed so that runs of different lengths compare
# like with like: it is the highest whole percentile that leaves at least
# 10 problems beyond it in the corpus (768 problems).  The other workloads
# have 8 or 16 problems, where it is simply the slowest one.
TAIL_PERCENTILE = 98


def tail(fits: list[Fit]) -> dict:
    """Nearest-rank ``TAIL_PERCENTILE`` of the problems' median wall times.

    Each problem's median over the run's passes comes first, so that one
    slow fit of a workload with few problems does not set the tail.
    """
    per_problem: dict[int, list[float]] = {}
    for f in fits:
        per_problem.setdefault(f.problem, []).append(f.wall)
    ordered = sorted(statistics.median(w) for w in per_problem.values())
    n = len(ordered)
    rank = -(-TAIL_PERCENTILE * n // 100)  # ceil
    return {"value": ordered[rank - 1], "percentile": TAIL_PERCENTILE,
            "beyond": n - rank, "problems": n, "fits": len(fits)}


def compare(rows: list[dict]) -> dict:
    """broydenfit against scipy ``lm`` on the problems both ran."""
    both = [r for r in rows if r["scipy"] is not None]
    return {
        "problems": len(both),
        "evals_per_fit": statistics.fmean(r["evaluations"] for r in both),
        "evals_median": statistics.median(r["evaluations"] for r in both),
        "fail_frac": statistics.fmean(r["failed"] for r in both),
        "ref.scipy.evals_per_fit": statistics.fmean(r["scipy"]["evals"] for r in both),
        "ref.scipy.evals_median": statistics.median(r["scipy"]["evals"] for r in both),
        "ref.scipy.fail_frac": statistics.fmean(r["scipy"]["failed"] for r in both),
    }


def case(row: dict) -> str:
    """Model and corpus variant, e.g. ``exponential-decay/weighted``."""
    variant = row["problem"].partition("/")[2]
    return f"{row['model']}/{variant}" if variant else row["model"]


def by_group(rows: list[dict], key) -> dict:
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return {name: compare(g) for name, g in groups.items()}


def end_to_end(fits, rows, setup_samples, peak_rss_mb) -> tuple[dict, dict]:
    ok = [f for f in fits if f.error is None]
    walls = [f.wall for f in ok]
    t = tail(ok)
    metrics = {
        "fit_s": (statistics.median(walls), "s"),
        "fit_s_tail": (t["value"], "s"),
        "solver_s": (statistics.median(f.wall - f.eval_s for f in ok), "s"),
        "evals_per_fit": (statistics.fmean(r["evaluations"] for r in rows), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }
    extra = {
        "evals_per_fit_gmean": statistics.geometric_mean(r["evaluations"] for r in rows),
        "evals_per_fit_median": statistics.median(r["evaluations"] for r in rows),
        "fit_s_tail": t,
        "setup_samples_s": setup_samples,
        "solver_share": statistics.fmean(f.wall - f.eval_s for f in ok)
        / statistics.fmean(walls),
    }
    return metrics, extra


def per_layer(tracer, traced, fits) -> tuple[dict, dict]:
    s = tracer.summary()
    n_fits = len(traced)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0, "value": 0,
            "evaluator_children": 0}

    def get(name):
        return s.get(name, zero)

    def per_fit(x):
        return x / n_fits

    evaluator_calls = sum(get(n)["calls"] for n in ("evaluator", "external.call"))
    armijo = get("core.armijo_holds")
    first = tracer.first_call_seconds("external.call")
    ok_t = [f.wall for f in traced if f.error is None]
    ok_u = [f.wall for f in fits if f.error is None]
    metrics = {
        "core.optimize.self_s": (per_fit(get("core.optimize")["self_s"]), "s"),
        "core.iterations": (statistics.fmean(f.iterations for f in traced), "count"),
        "core.Parameters.inits": (per_fit(get("core.Parameters")["calls"]), "count"),
        "core.Parameters.s": (per_fit(get("core.Parameters")["total_s"]), "s"),
        "core.constrain_step.s": (per_fit(get("core.constrain_step")["total_s"]), "s"),
        "core.broyden_update.calls":
            (per_fit(get("core.broyden_update")["calls"]), "count"),
        "core.broyden_update.s": (per_fit(get("core.broyden_update")["total_s"]), "s"),
        "core.broyden_update.skipped":
            (per_fit(get("core.broyden_update")["raised"]), "count"),
        "core.assemble_lm_system.s":
            (per_fit(get("core.assemble_lm_system")["total_s"]), "s"),
        "core.armijo_holds.s": (per_fit(armijo["total_s"]), "s"),
        "core.armijo_holds.pass_ratio":
            (armijo["value"] / armijo["calls"] if armijo["calls"] else 0.0, "ratio"),
        "core.backtrack.trials": (
            get("core.backtrack")["evaluator_children"] / get("core.backtrack")["calls"]
            if get("core.backtrack")["calls"] else 0.0, "count"),
        "core.backtrack.self_s": (per_fit(get("core.backtrack")["self_s"]), "s"),
        "linalg.solve.calls": (per_fit(get("linalg.solve")["calls"]), "count"),
        "linalg.solve.s": (per_fit(get("linalg.solve")["total_s"]), "s"),
        "linalg.solve.singular": (per_fit(get("linalg.solve")["raised"]), "count"),
        "fdiff.fd_jacobian.calls": (per_fit(get("fdiff.fd_jacobian")["calls"]), "count"),
        "fdiff.fd_jacobian.self_s": (per_fit(get("fdiff.fd_jacobian")["self_s"]), "s"),
        "fdiff.probes": (get("fdiff.fd_jacobian")["evaluator_children"] / evaluator_calls
                         if evaluator_calls else 0.0, "ratio"),
        "models.eval.calls": (per_fit(get("models.eval")["calls"]), "count"),
        "models.eval.s": (per_fit(get("models.eval")["total_s"]), "s"),
        "evaluator.s": (per_fit(sum(get(n)["total_s"]
                                    for n in ("evaluator", "external.call"))), "s"),
        "external.first_call_s": (statistics.fmean(first) if first else 0.0, "s"),
        "external.call.s": (per_fit(get("external.call")["total_s"] - sum(first)), "s"),
        "external.encode_request.s":
            (per_fit(get("external.encode_request")["total_s"]), "s"),
        "external.bytes_out": (per_fit(get("external.encode_request")["value"]), "B"),
        "external.bytes_in": (per_fit(get("external.decode_response")["value"]), "B"),
        "external.close.s": (per_fit(get("external.close")["total_s"]), "s"),
        "dataio.load_runspec.s": (per_fit(get("dataio.load_runspec")["total_s"]), "s"),
        "dataio.prepare_run.s": (per_fit(get("dataio.prepare_run")["total_s"]), "s"),
        "dataio.write_report.s": (per_fit(get("dataio.write_report")["total_s"]), "s"),
        "cli.main.self_s": (per_fit(get("cli.main")["self_s"]), "s"),
        "trace.overhead_s": (statistics.median(ok_t) - statistics.median(ok_u), "s"),
        "trace.unaccounted_s": (per_fit(get("fit")["self_s"]), "s"),
    }
    fit_mean = per_fit(get("fit")["total_s"])
    accounting = {
        "traced_fit_s_mean": fit_mean,
        "self_s_per_fit": {name: per_fit(v["self_s"]) for name, v in s.items()
                           if name != "fit"},
        "unaccounted_s_per_fit": per_fit(get("fit")["self_s"]),
    }
    accounting["self_share"] = {
        name: v / fit_mean for name, v in accounting["self_s_per_fit"].items()}
    return metrics, {"spans": s, "accounting": accounting, "absent": tracer.absent}


# ---------------------------------------------------------------------------
# Environment record


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout is not a stable interface
        openblas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": _git_commit(),
        "seed": seed,
        "blas_threads": THREADS,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "tall", "wide", "external"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _use_checkout_src()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed, workdir)[1])
            return 0
        try:
            return run(args, tag, workdir)
        except HarnessError as exc:
            print(f"harness invariant broken: {exc}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, tag: str, workdir: str) -> int:
    problems, elapsed = setup(args.workload, args.seed, workdir)

    import broydenfit.external
    import calibrate
    import spans
    import workloads

    setup_samples = [elapsed]
    setup_cal = None
    if not args.trace:
        setup_cal = calibrate.Calibration(calibrate.SETUP_PARTS)
        for _ in range(SETUP_PROBES):
            setup_cal.sample()
            setup_samples.append(probe_setup(args.workload, args.seed))
        setup_cal.sample()

    external = args.workload == "external"
    runner = fit_external if external else fit_inprocess
    meter = Meter()
    tracer = spans.Tracer() if args.trace else None
    evaluator_class = broydenfit.external.ExternalEvaluator
    original_call, original_close = evaluator_class.__call__, evaluator_class.close
    if external:
        # Starting the child (in its first call) and waiting for it to exit
        # (close) are evaluator time, like the calls themselves.
        evaluator_class.__call__ = meter.wrap(original_call)
        evaluator_class.close = meter.wrap(original_close, count=False)
    cal = calibrate.Calibration(calibrate.PARTS[args.workload], problems)
    try:
        if tracer is None:
            fits = measure(problems, runner, passes(args.workload, args.seconds),
                           meter, cal)
            traced = []
        else:
            fits, traced = measure_traced(problems, runner, meter, tracer, cal)
    finally:
        evaluator_class.__call__, evaluator_class.close = original_call, original_close
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The problems do not depend on the seed, so neither does scipy's run:
    # the traced run makes it, untraced runs skip its cost.
    rows, failed_problems = judge(args.workload, problems, fits, workloads,
                                  with_scipy=bool(args.trace))
    counted = traced if args.trace else fits
    attempted = len(counted)
    failed = sum(f.problem in failed_problems for f in counted)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tolerance": workloads.TOLERANCE,
        "environment": environment(args.seed),
        "attempted": attempted, "failed": failed,
        "problems": rows,
        "fail_frac": failed / attempted,
        "fail_frac_per_problem": len(failed_problems) / len(rows),
    }
    if args.trace:
        record["versus_scipy"] = compare(rows)
        record["by_model"] = by_group(rows, lambda r: r["model"])
        record["by_case"] = by_group(rows, case)
        metrics, detail = per_layer(tracer, traced, fits)
        record.update(detail)
        os.makedirs(RESULTS, exist_ok=True)
        record["spans_saved"] = tracer.save(
            os.path.join(RESULTS, f"{tag}.spans.npz"), SAVED_SPANS)
    else:
        metrics, extra = end_to_end(fits, rows, setup_samples, peak_rss_mb)
        record.update(extra)
        record["fits"] = [[f.problem, f.wall, f.eval_s, f.end] for f in fits]
    # Times in reference seconds (see calibrate.py), each scaled by the
    # kernel samples of its own phase; measured seconds are in "measured".
    factors = {name: cal.factor() for name in metrics}
    record["calibration"] = {"fits": cal.record()}
    if setup_cal is not None:
        factors["setup_s"] = setup_cal.factor()
        record["calibration"]["setup"] = setup_cal.record()
    record["calibration"]["factors"] = factors
    record["measured"] = {k: v for k, (v, u) in metrics.items()}
    record["metrics"] = {k: {"value": v * factors[k] if u == "s" else v, "unit": u}
                         for k, (v, u) in metrics.items()}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    calls = statistics.fmean(r["evaluations"] for r in rows)
    versus = (f", scipy lm {record['versus_scipy']['ref.scipy.evals_per_fit']:.1f}"
              if args.trace else "")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} fits, "
          f"{failed} failed; calls/fit {calls:.1f}{versus}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
