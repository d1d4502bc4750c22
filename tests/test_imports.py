"""What each entry point imports: the solver, and scipy with it, load only
where a fit runs."""

import json
import subprocess
import sys

import pytest

import broydenfit

LINEAR_CSV = "x1,y\n0,1\n1,3\n2,5\n"

# ``python -m broydenfit`` with ``external.serve`` wrapped to report, once
# standard input closes, the solver and scipy modules the child has loaded.
SERVE_AND_REPORT_MAIN = """
import runpy, sys
from broydenfit import external

def serve(*args):
    serve_requests(*args)
    loaded = [m for m in sys.modules if m == "broydenfit.core" or m.split(".")[0] == "scipy"]
    print("loaded:", sorted(loaded), file=sys.stderr)

serve_requests, external.serve = external.serve, serve
runpy.run_module("broydenfit", run_name="__main__")
"""


def test_serve_model_child_loads_neither_the_solver_nor_scipy(tmp_path):
    (tmp_path / "data.csv").write_text(LINEAR_CSV)
    spec = tmp_path / "run.json"
    spec.write_text(json.dumps({"model": {"kind": "linear"}, "dataset": "data.csv"}))
    proc = subprocess.run(
        [sys.executable, "-c", SERVE_AND_REPORT_MAIN, "serve-model", "--spec", str(spec)],
        input='{"v":1,"id":1,"params":[1,2]}\n', capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"v": 1, "id": 1, "residuals": [0.0, 0.0, 0.0]}
    assert proc.stderr == "loaded: []\n"


def test_importing_the_solver_loads_scipy_linalg():
    # The command line loads neither the solver nor any scipy module at
    # import.  A caller that imports broydenfit.core up front pays for scipy
    # there, not inside its first fit.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, broydenfit, broydenfit.cli;"
         "print(sorted(m for m in sys.modules"
         "             if m == 'broydenfit.core' or m.split('.')[0] == 'scipy'));"
         "import broydenfit.core;"
         "print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "True"]


# ``python -m broydenfit`` with ``ExternalEvaluator._spawn`` wrapped to report
# whether the solver is loaded when the child is started.
SPAWN_AND_REPORT_MAIN = """
import runpy, sys
from broydenfit.external import ExternalEvaluator

def spawn(self):
    print("solver loaded at spawn:", "broydenfit.core" in sys.modules, file=sys.stderr)
    spawn_child(self)

spawn_child, ExternalEvaluator._spawn = ExternalEvaluator._spawn, spawn
runpy.run_module("broydenfit", run_name="__main__")
"""


@pytest.mark.parametrize("command", ["fit", "check-jacobian"])
def test_fitting_commands_start_the_child_before_loading_the_solver(tmp_path, command):
    # So the child's boot overlaps the solver's and scipy's import.
    (tmp_path / "data.csv").write_text(LINEAR_CSV)
    served = tmp_path / "served.json"
    served.write_text(json.dumps({"model": {"kind": "linear"}, "dataset": "data.csv"}))
    spec = tmp_path / "run.json"
    spec.write_text(json.dumps({
        "model": {"command": [sys.executable, "-m", "broydenfit", "serve-model",
                             "--spec", str(served)]},
        "n_params": 2,
    }))
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN_AND_REPORT_MAIN, command, "--spec", str(spec)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "status=Converged" in proc.stdout
    reports = [ln for ln in proc.stderr.splitlines() if ln.startswith("solver loaded")]
    assert reports == ["solver loaded at spawn: False"]


def test_package_root_solver_names_are_the_solvers():
    import broydenfit.core

    assert broydenfit.optimize is broydenfit.core.optimize
    assert broydenfit.optimize_with_state is broydenfit.core.optimize_with_state
