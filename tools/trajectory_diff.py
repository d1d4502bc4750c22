"""Compare the fits of two checkouts of broydenfit, problem by problem.

Runs every problem of one benchmark workload (``corpus``, ``tall``,
``wide`` or ``external``, as generated by ``bench/workloads.py``) once at
each checkout and compares the results of each problem.

In-process workloads (``corpus``, ``tall``, ``wide``) fit each problem
through ``broydenfit.optimize`` and compare the two ``RunReport``s, every
field and every iteration record, bit for bit, records by field name.
Each problem is also run through ``broydenfit.optimize_with_state``; its
final secant state (a SHA-256 of ``broyden``, ``last_step`` and
``last_residual_change``) is compared too.

The ``external`` workload fits each problem end to end through
``broydenfit.cli.main``, with a ``serve-model`` child running the same
checkout's package, in a temporary directory: once with ``-v`` writing the
JSON report, once writing the csv-trace.  It compares the report files as
JSON data (``json.load``, so key order does not matter), and the csv-trace,
the ``-v`` lines, the summary line and the exit status byte for byte.

Each problem's result also counts the WARNING records the package logged
during its fit (the first fit, for in-process workloads).

Prints how many problems differ, and how many of those differ in
``evaluations`` or ``status`` (a changed trajectory rather than round-off);
the first few names, each with the top-level keys that differ
(``state_sha256``, ``objective``, ``evaluations``, ...); the largest
final-parameter change among the problems that differ
(``workloads.deviation`` of the change's final beta from the parent's), with
the problem's name, which sizes a round-off-only change; then per side the
totals of each status, of evaluator calls, of failed fits and of WARNING
records, where a fit fails as in the benchmark: it did not converge, or its
parameters lie more than ``workloads.TOLERANCE`` from the reference
solution.  Before the totals, it counts the fits the change fixed and names
those it newly failed.  On ``corpus`` the calls and failed fits are also totalled per
variant (the ``/plain``, ``/weighted``, ``/bounded`` or ``/hybrid`` suffix
of the problem's name).  One ``reason`` row per distinct
``failure_reason``, its ``iteration k: `` prefix stripped, counts the fits
that stopped for it, so a change to the stop policy shows which exits moved.

Each checkout runs in its own Python subprocess, with its own ``src/`` on
the path and ``OPENBLAS_NUM_THREADS=1``.  Both sides fit the problems that
CHANGE_DIR's ``bench/workloads.py`` generates; nothing under ``bench/`` is
written.

Usage:
    python tools/trajectory_diff.py PARENT_DIR CHANGE_DIR --workload corpus

Exit status: 0 when every problem is equal, 1 when some differ.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile

WORKLOADS = ("corpus", "tall", "wide", "external")
SEED = 0  # the seed only orders the problems; they are matched by name
SHOWN = 10


def _report_data(report) -> dict:
    """A RunReport as JSON-ready data: arrays as lists, the status by value."""
    import numpy as np

    def plain(value):
        return value.tolist() if isinstance(value, np.ndarray) else value

    return {
        "status": report.status.value,
        "beta": report.final_beta.values.tolist(),
        "objective": report.final_objective,
        "evaluations": report.evaluation_count,
        "reason": report.failure_reason,
        "iterations": [{f.name: plain(getattr(rec, f.name))
                        for f in dataclasses.fields(rec)}
                       for rec in report.iterations],
    }


def _state_data(state) -> dict:
    """The final secant state of a run as a digest."""
    digest = hashlib.sha256()
    for x in (state.broyden, state.last_step, state.last_residual_change):
        digest.update(b"None" if x is None else repr(x.shape).encode() + x.tobytes())
    return {"state_sha256": digest.hexdigest()}


def _cli_data(cli, argv: list[str]) -> dict:
    """One ``broydenfit`` command line's exit status, summary and ``-v`` lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _external_data(cli, p, workloads) -> dict:
    """Fit one external problem through the command line, twice: with ``-v``
    and a JSON report, then with a csv-trace."""
    report_path = workloads.report_path(p)
    trace_path = report_path[:-len(".json")] + ".csv"
    verbose = _cli_data(cli, p.argv + ["-v"])
    traced = _cli_data(cli, p.argv[:p.argv.index("--out")]
                       + ["--out", trace_path, "--format", "csv"])
    with open(report_path) as fh:
        report = json.load(fh)
    with open(trace_path, newline="") as fh:
        trace = fh.read()
    return {"status": report["status"], "beta": report["final_beta"]["values"],
            "evaluations": report["evaluation_count"],
            "reason": report["failure_reason"], "report": report,
            "trace": trace, "verbose": verbose, "traced": traced}


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def child(checkout: str, bench: str, workload: str) -> None:
    """Fit every problem with the checkout's package; JSON lines on stdout."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path[:0] = [src, bench]
    import broydenfit
    import broydenfit.cli
    import workloads

    if not os.path.abspath(broydenfit.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported broydenfit from {broydenfit.__file__}")
    logged = _WarningCounter()
    logging.getLogger("broydenfit").addHandler(logged)
    if workload == "external":
        with tempfile.TemporaryDirectory() as workdir:
            for p in workloads.build(workload, SEED, workdir):
                logged.count = 0
                data = _external_data(broydenfit.cli, p, workloads)
                data["warnings"] = logged.count
                print(json.dumps([p.name, data]), flush=True)
        return
    for p in workloads.build(workload, SEED, workdir=None):
        call = dict(p.call)
        evaluator = call.pop("evaluator")
        logged.count = 0
        data = _report_data(broydenfit.optimize(evaluator, **call))
        data["warnings"] = logged.count
        data.update(_state_data(broydenfit.optimize_with_state(evaluator, **call)[1]))
        print(json.dumps([p.name, data]), flush=True)


def run_side(checkout: str, bench: str, workload: str) -> dict[str, str]:
    """Each problem's results, as JSON text with sorted keys, from one checkout."""
    # serve-model children import the package from the same checkout.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", checkout,
         "--bench", bench, "--workload", workload],
        env=env, capture_output=True, text=True, check=False,
    )
    if out.returncode != 0:
        raise SystemExit(f"error: fits at {checkout} failed:\n{out.stderr}")
    reports = {}
    for line in out.stdout.splitlines():
        name, data = json.loads(line)
        reports[name] = json.dumps(data, sort_keys=True)
    return reports


def failed_fits(bench: str, workload: str, sides: dict[str, dict[str, str]]) -> dict:
    """Per side, the names of the fits that fail the benchmark's test."""
    import numpy as np

    sys.path.insert(0, bench)
    import workloads

    failed = {side: set() for side in sides}
    for p in workloads.generate(workload, SEED):
        ref, _ = workloads.reference(p)
        for side, reports in sides.items():
            data = json.loads(reports[p.name])
            dev = workloads.deviation(np.array(data["beta"]), ref)
            if data["status"] != "Converged" or not dev <= workloads.TOLERANCE:
                failed[side].add(p.name)
    return failed


def largest_change(bench: str, sides: dict[str, dict[str, str]], names) -> tuple[float, str]:
    """The largest ``workloads.deviation`` of the change's final beta from
    the parent's among ``names``, and the name of its problem."""
    import numpy as np

    sys.path.insert(0, bench)
    import workloads

    def beta(side, name):
        return np.array(json.loads(sides[side][name])["beta"])

    return max((workloads.deviation(beta("change", name), beta("parent", name)), name)
               for name in names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="checkout to compare against")
    parser.add_argument("change", nargs="?", help="checkout with the change")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--bench", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child, args.bench, args.workload)
        return 0
    if not (args.parent and args.change):
        parser.error("PARENT_DIR and CHANGE_DIR are required")

    bench = os.path.join(os.path.abspath(args.change), "bench")
    sides = {"parent": args.parent, "change": args.change}
    reports = {side: run_side(path, bench, args.workload) for side, path in sides.items()}
    names = sorted(reports["change"])
    if sorted(reports["parent"]) != names:
        raise SystemExit("error: the two checkouts fitted different problems")
    differ = {}  # name: the top-level keys whose values differ
    for name in names:
        if reports["parent"][name] != reports["change"][name]:
            old, new = (json.loads(reports[side][name]) for side in sides)
            differ[name] = sorted(k for k in old | new if old.get(k) != new.get(k))
    moved = sum(1 for keys in differ.values() if {"evaluations", "status"} & set(keys))

    print(f"{args.workload}: {len(names)} problems, {len(differ)} differ, "
          f"{moved} in evaluations or status")
    for name, keys in list(differ.items())[:SHOWN]:
        print(f"  differs: {name}: {', '.join(keys)}")
    if len(differ) > SHOWN:
        print(f"  ... and {len(differ) - SHOWN} more")
    if differ:
        dev, name = largest_change(bench, reports, differ)
        print(f"  largest final-beta change: {dev:.2g} ({name})")
    failed = failed_fits(bench, args.workload, reports)
    newly = sorted(failed["change"] - failed["parent"])
    print(f"  fixed: {len(failed['parent'] - failed['change'])} fits; "
          f"newly failed: {len(newly)} fits{': ' if newly else ''}{', '.join(newly)}")
    rows = collections.defaultdict(collections.Counter)
    for side in sides:
        for name, text in reports[side].items():
            d = json.loads(text)
            rows[f"status {d['status']}"][side] += 1
            rows["warnings"][side] += d["warnings"]
            if d["reason"]:
                rows["reason " + re.sub(r"^iteration \d+: ", "", d["reason"])][side] += 1
            suffixes = [""] + ([f" {name.rsplit('/', 1)[1]}"]
                               if args.workload == "corpus" else [])
            for suffix in suffixes:
                rows["evaluations" + suffix][side] += d["evaluations"]
                rows["failed" + suffix][side] += name in failed[side]
    width = max(28, *(len(label) + 2 for label in rows))
    print(f"{'':{width}}{'parent':>10}{'change':>10}")
    for label, row in sorted(rows.items()):
        print(f"{label:{width}}{row.get('parent', 0):>10}{row.get('change', 0):>10}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
