"""Command-line front-end.

Subcommands:

* ``fit``            run an optimization described by a run-spec file;
* ``check-jacobian`` fit, then compare the final secant matrix against a
  finite-difference Jacobian;
* ``serve-model``    answer residual requests on stdin/stdout (wire
  protocol v1), so a fit can exercise the external-evaluator path against
  this same program.

Exit codes: 0 converged (or diagnostic complete), 1 configuration or parse
error, 2 stopped without convergence, 3 evaluator failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

import numpy as np

from . import dataio, external, fdiff
from .errors import BroydenFitError, ConfigError, EvaluatorFailure
from .records import RunStatus

STATUS_EXIT = {
    RunStatus.Converged: 0,
    RunStatus.MaxIterations: 2,
    RunStatus.LineSearchFloor: 2,
    RunStatus.EvaluatorFailure: 3,
}


def _format_beta(values: np.ndarray) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in values) + "]"


def _print_record(rec) -> None:
    print(
        f"k={rec.k} objective={rec.objective:.6e} |r|={rec.residual_norm:.6e} "
        f"lambda={rec.lam:.3e} alpha={rec.alpha:.6g} |p|={rec.p_norm:.3e} "
        f"rel={rec.max_rel_change:.3e} "
        f"armijo={'yes' if rec.armijo_satisfied else 'no'}",
        file=sys.stderr,
        flush=True,
    )


def _summarize(report) -> int:
    """Print why a failed run stopped, then the summary line; return the exit code."""
    if report.failure_reason:
        print(f"error: {report.failure_reason}", file=sys.stderr)
    print(
        f"status={report.status.value} iterations={len(report.iterations)} "
        f"objective={report.final_objective:.6e} "
        f"evaluations={report.evaluation_count} "
        f"beta={_format_beta(report.final_beta.values)}"
    )
    return STATUS_EXIT[report.status]


def _load_setup(spec_path: str, spec: dataio.RunSpec | None = None) -> dataio.RunSetup:
    spec = dataio.load_runspec(spec_path) if spec is None else spec
    return dataio.prepare_run(spec, base_dir=os.path.dirname(os.path.abspath(spec_path)))


def cmd_fit(args) -> int:
    with _load_setup(args.spec) as setup:
        # The solver and scipy: only commands that fit load them, and only
        # once an external child is starting, so its boot overlaps the import.
        from .core import optimize

        report = optimize(
            setup.evaluate,
            setup.beta0,
            setup.config,
            setup.weights,
            on_iteration=_print_record if args.verbose else None,
        )
    if args.out:
        fmt = "csv-trace" if args.format == "csv" else "json"
        dataio.write_report(report, args.out, format=fmt)
    return _summarize(report)


def _discrepancy(diff: np.ndarray, ref: np.ndarray) -> float:
    """``|diff| / |ref|``, or ``|diff|`` when the reference vanishes."""
    num, denom = float(np.linalg.norm(diff)), float(np.linalg.norm(ref))
    return num / denom if denom > 0 else num


def cmd_check_jacobian(args) -> int:
    with _load_setup(args.spec) as setup:
        from .core import _CountingEvaluator, optimize_with_state  # as in cmd_fit

        report, state = optimize_with_state(
            setup.evaluate,
            setup.beta0,
            setup.config,
            setup.weights,
            on_iteration=_print_record if args.verbose else None,
        )
        code = _summarize(report)
        if report.status is RunStatus.EvaluatorFailure:
            return code
        fd_config = fdiff.FdConfig(scheme=args.scheme)
        beta = report.final_beta
        # Probed outside the run, so through the run's residual check.
        jac = fdiff.fd_jacobian(_CountingEvaluator(setup.evaluate), beta.values, fd_config,
                                beta.lower, beta.upper)

    b = state.broyden
    print(f"finite-difference scheme: {args.scheme} (matrix {jac.shape[0]}x{jac.shape[1]})")
    for j in range(jac.shape[1]):
        print(f"column {j}: discrepancy {_discrepancy(b[:, j] - jac[:, j], jac[:, j]):.6e}")
    print(f"frobenius: discrepancy {_discrepancy(b - jac, jac):.6e}")
    if state.last_step is not None:
        s = state.last_step
        print(f"secant direction: discrepancy {_discrepancy((b - jac) @ s, jac @ s):.6e}")
    return 0


def cmd_serve_model(args) -> int:
    spec = dataio.load_runspec(args.spec)
    if spec.is_external:
        raise ConfigError("serve-model needs an analytic model with a dataset", key="model")
    with _load_setup(args.spec, spec) as setup:
        external.serve(setup.evaluate, sys.stdin, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="broydenfit",
        description="Derivative-free nonlinear least-squares parameter fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="optimize parameters against data")
    p_fit.add_argument("--spec", required=True, help="run-spec JSON file")
    p_fit.add_argument("--out", help="write the run report here")
    p_fit.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
    p_fit.add_argument("-v", "--verbose", action="store_true",
                       help="print each iteration as it happens")
    p_fit.set_defaults(func=cmd_fit)

    p_chk = sub.add_parser(
        "check-jacobian",
        help="fit, then compare the secant matrix against finite differences",
    )
    p_chk.add_argument("--spec", required=True, help="run-spec JSON file")
    p_chk.add_argument("--scheme", choices=fdiff.SCHEMES, default=fdiff.FdConfig.scheme)
    p_chk.add_argument("-v", "--verbose", action="store_true")
    p_chk.set_defaults(func=cmd_check_jacobian)

    p_srv = sub.add_parser(
        "serve-model", help="answer residual requests on stdin (protocol v1)"
    )
    p_srv.add_argument("--spec", required=True, help="run-spec JSON file")
    p_srv.set_defaults(func=cmd_serve_model)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EvaluatorFailure as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return 3
    except (BroydenFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """Entry point of ``python -m broydenfit`` and the ``broydenfit`` script.

    Runs :func:`main`, flushes standard output and error, and skips
    interpreter teardown: every file :func:`main` writes is closed by the
    time it returns.  A ``serve-model`` child, which has numpy loaded but
    neither the solver nor scipy, saves about 0.035 s per fit that way;
    ``fit`` and ``check-jacobian``, which load both, save about 0.09 s
    (medians on a 2-core Xeon host).
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
