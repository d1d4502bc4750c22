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

import numpy as np

from . import dataio, external, fdiff
from .core import RunStatus, optimize, optimize_with_state
from .errors import BroydenFitError, ConfigError, EvaluatorFailure

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


def _load_setup(spec_path: str) -> dataio.RunSetup:
    spec = dataio.load_runspec(spec_path)
    return dataio.prepare_run(spec, base_dir=os.path.dirname(os.path.abspath(spec_path)))


def cmd_fit(args) -> int:
    with _load_setup(args.spec) as setup:
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
    if report.failure_reason:
        print(f"error: {report.failure_reason}", file=sys.stderr)
    print(
        f"status={report.status.value} iterations={len(report.iterations)} "
        f"objective={report.final_objective:.6e} "
        f"evaluations={report.evaluation_count} "
        f"beta={_format_beta(report.final_beta.values)}"
    )
    return STATUS_EXIT[report.status]


def _relative(num: float, denom: float) -> float:
    # Absolute discrepancy when the reference vanishes.
    return num / denom if denom > 0 else num


def cmd_check_jacobian(args) -> int:
    with _load_setup(args.spec) as setup:
        report, state = optimize_with_state(
            setup.evaluate,
            setup.beta0,
            setup.config,
            setup.weights,
            on_iteration=_print_record if args.verbose else None,
        )
        if report.status is RunStatus.EvaluatorFailure:
            print(f"error: {report.failure_reason}", file=sys.stderr)
            return 3
        fd_config = fdiff.FdConfig(scheme=args.scheme)
        beta = report.final_beta
        jac = fdiff.fd_jacobian(setup.evaluate, beta.values, fd_config,
                                beta.lower, beta.upper)

    b = state.broyden
    print(
        f"status={report.status.value} iterations={len(report.iterations)} "
        f"beta={_format_beta(report.final_beta.values)}"
    )
    print(f"finite-difference scheme: {args.scheme} (matrix {jac.shape[0]}x{jac.shape[1]})")
    for j in range(jac.shape[1]):
        disc = _relative(
            float(np.linalg.norm(b[:, j] - jac[:, j])), float(np.linalg.norm(jac[:, j]))
        )
        print(f"column {j}: discrepancy {disc:.6e}")
    frob = _relative(
        float(np.linalg.norm(b - jac)), float(np.linalg.norm(jac))
    )
    print(f"frobenius: discrepancy {frob:.6e}")
    if state.last_step is not None:
        s = state.last_step
        disc = _relative(
            float(np.linalg.norm((b - jac) @ s)), float(np.linalg.norm(jac @ s))
        )
        print(f"secant direction: discrepancy {disc:.6e}")
    return 0


def cmd_serve_model(args) -> int:
    with _load_setup(args.spec) as setup:
        if setup.model is None:
            raise ConfigError(
                "serve-model needs an analytic model with a dataset", key="model"
            )
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
    p_chk.add_argument("--scheme", choices=("central", "forward"), default="central")
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


if __name__ == "__main__":
    sys.exit(main())
