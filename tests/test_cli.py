import json
import subprocess
import sys

import numpy as np
import pytest

from broydenfit import fdiff
from broydenfit.cli import main
from broydenfit.dataio import read_report

LINEAR_CSV = "x1,y\n0,1\n1,3\n2,5\n"


def make_spec(tmp_path, extra=None, csv=LINEAR_CSV):
    (tmp_path / "data.csv").write_text(csv)
    spec = {"model": {"kind": "linear"}, "dataset": "data.csv"}
    spec.update(extra or {})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(spec))
    return path


def test_fit_converges_with_summary(tmp_path, capsys):
    code = main(["fit", "--spec", str(make_spec(tmp_path))])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=Converged" in out
    beta_text = out.split("beta=[")[1].split("]")[0]
    beta = [float(v) for v in beta_text.split(",")]
    assert np.allclose(beta, [1.0, 2.0], rtol=1e-3, atol=0)


def test_fit_writes_json_report(tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["fit", "--spec", str(make_spec(tmp_path)), "--out", str(out_path)])
    assert code == 0
    report = read_report(out_path)
    assert np.allclose(report.final_beta.values, [1.0, 2.0], rtol=1e-4, atol=0)


def test_fit_writes_csv_trace(tmp_path):
    out_path = tmp_path / "trace.csv"
    code = main(["fit", "--spec", str(make_spec(tmp_path)),
                 "--out", str(out_path), "--format", "csv"])
    assert code == 0
    assert out_path.read_text().startswith("k,objective")


def test_fit_truncated_run_exits_2(tmp_path, capsys):
    spec = make_spec(tmp_path, {"solver": {"max_iterations": 2}})
    code = main(["fit", "--spec", str(spec)])
    assert code == 2
    assert "status=MaxIterations" in capsys.readouterr().out


def test_fit_missing_dataset_exits_1(tmp_path, capsys):
    spec = tmp_path / "run.json"
    spec.write_text(json.dumps({"model": {"kind": "linear"}, "dataset": "gone.csv"}))
    code = main(["fit", "--spec", str(spec)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_fit_invalid_config_exits_1(tmp_path, capsys):
    spec = make_spec(tmp_path, {"solver": {"epsilon": -2}})
    assert main(["fit", "--spec", str(spec)]) == 1


def test_fit_dead_external_exits_3(tmp_path, capsys):
    spec = tmp_path / "run.json"
    spec.write_text(json.dumps({
        "model": {"command": [sys.executable, "-c", "import sys; sys.exit(1)"]},
        "n_params": 2,
    }))
    code = main(["fit", "--spec", str(spec)])
    assert code == 3
    assert "status=EvaluatorFailure" in capsys.readouterr().out


def test_fit_verbose_prints_iterations(tmp_path, capsys):
    code = main(["fit", "--spec", str(make_spec(tmp_path)), "-v"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [ln for ln in captured.err.splitlines() if ln.startswith("k=")]
    assert lines and "armijo=" in lines[0]


def test_check_jacobian_linear(tmp_path, capsys):
    code = main(["check-jacobian", "--spec", str(make_spec(tmp_path))])
    captured = capsys.readouterr().out
    assert code == 0
    assert "column 0" in captured and "frobenius" in captured
    secant = [ln for ln in captured.splitlines() if ln.startswith("secant direction")]
    assert secant
    # Matched secant direction: discrepancy small along the last step.
    assert float(secant[0].split()[-1]) <= 1e-6


def test_check_jacobian_forward_scheme(tmp_path):
    assert main(["check-jacobian", "--spec", str(make_spec(tmp_path)),
                 "--scheme", "forward"]) == 0


@pytest.mark.parametrize("scheme", ["central", "forward"])
def test_check_jacobian_probes_inside_the_box(tmp_path, monkeypatch, scheme):
    # The intercept's optimum 1.0 lies above its upper bound 0.5, so the fit
    # ends on that bound; no FD probe may go past it.
    probes, fd_jacobian = [], fdiff.fd_jacobian

    def spy(evaluate, beta, *args):
        def probe(x):
            probes.append(np.array(x))
            return evaluate(x)
        return fd_jacobian(probe, beta, *args)

    monkeypatch.setattr(fdiff, "fd_jacobian", spy)
    spec = make_spec(tmp_path, {"bounds": [[None, 0.5], [None, None]]})
    assert main(["check-jacobian", "--spec", str(spec), "--scheme", scheme]) == 0
    assert probes and all(x[0] <= 0.5 for x in probes)
    assert any(x[0] == 0.5 for x in probes)


def test_serve_model_subprocess_session(tmp_path):
    spec = make_spec(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "broydenfit", "serve-model", "--spec", str(spec)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        requests = (
            '{"v":1,"id":7,"params":[1,2]}\n'
            "garbage\n"
            '{"v":1,"id":8,"params":[0,0]}\n'
        )
        out, _ = proc.communicate(requests, timeout=30)
        replies = [json.loads(line) for line in out.splitlines()]
        assert replies[0] == {"v": 1, "id": 7, "residuals": [0.0, 0.0, 0.0]}
        assert replies[1]["id"] == -1 and "error" in replies[1]
        assert replies[2] == {"v": 1, "id": 8, "residuals": [1.0, 3.0, 5.0]}
        assert proc.returncode == 0  # clean exit on EOF
    finally:
        proc.kill()


def test_check_jacobian_zero_jacobian_reports_absolute_norm(tmp_path, capsys):
    # A constant-residual external model has a zero true Jacobian, so the
    # relative discrepancy falls back to the absolute norm of the secant
    # matrix.  After the bootstrap update from start (0,0) to (0.01, 0.01)
    # that matrix is I - s s^T / |s|^2 with Frobenius norm exactly 1.
    const_child = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    print(json.dumps({'v': 1, 'id': req['id'], 'residuals': [3.0, 3.0]}),"
        " flush=True)\n"
    )
    spec = tmp_path / "run.json"
    spec.write_text(json.dumps({
        "model": {"command": [sys.executable, "-c", const_child]},
        "n_params": 2,
    }))
    code = main(["check-jacobian", "--spec", str(spec)])
    out = capsys.readouterr().out
    assert code == 0
    frob = [ln for ln in out.splitlines() if ln.startswith("frobenius")]
    assert float(frob[0].split()[-1]) == pytest.approx(1.0, abs=1e-9)


def test_serve_model_requires_analytic_model(tmp_path, capsys):
    spec = tmp_path / "run.json"
    spec.write_text(json.dumps({"model": {"command": ["prog"]}, "n_params": 1}))
    assert main(["serve-model", "--spec", str(spec)]) == 1
