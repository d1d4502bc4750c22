import dataclasses
import json
from unittest import mock

import numpy as np
import pytest

from broydenfit import (
    ConfigError,
    DatasetEvaluator,
    ExternalEvaluatorSpec,
    LinearModel,
    ParseError,
    PolynomialModel,
    RunStatus,
    SolverConfig,
    optimize,
)
from broydenfit import dataio
from broydenfit.dataio import (
    RunSpec,
    load_dataset,
    load_runspec,
    prepare_run,
    read_report,
    report_to_dict,
    write_report,
)

from conftest import linear_dataset


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- datasets ----------------------------------------------------------------

def test_load_minimal_dataset(tmp_path):
    data = load_dataset(write(tmp_path, "d.csv", "x1,y\n0,1\n1,3\n"))
    assert data.m == 2 and data.d == 1
    assert np.array_equal(data.x, [[0.0], [1.0]])
    assert np.array_equal(data.y, [1.0, 3.0])
    assert data.weights is None


def test_load_dataset_with_weights(tmp_path):
    data = load_dataset(write(tmp_path, "d.csv", "x1,y,weight\n0,1,4\n1,3,1\n"))
    assert np.array_equal(data.weights, [4.0, 1.0])


def test_load_dataset_column_order_is_free(tmp_path):
    data = load_dataset(write(tmp_path, "d.csv", "y,x2,x1\n7,2,1\n8,4,3\n"))
    assert data.d == 2
    assert np.array_equal(data.x, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(data.y, [7.0, 8.0])


def test_load_dataset_with_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with one.
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbfx1,y\r\n0,1\r\n1,3\r\n")
    data = load_dataset(path)
    assert np.array_equal(data.x, [[0.0], [1.0]]) and np.array_equal(data.y, [1.0, 3.0])


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte_order_mark"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, mark):
    path = tmp_path / "d.csv"
    path.write_bytes(mark + b"x1,y\n\xff0,1\n")
    with pytest.raises(ParseError, match=r"^line 2: not UTF-8 text") as err:
        load_dataset(path)
    assert err.value.line == 2


def test_non_numeric_cell_names_line(tmp_path):
    with pytest.raises(ParseError) as err:
        load_dataset(write(tmp_path, "d.csv", "x1,y\n0,abc\n"))
    assert err.value.line == 2


def test_missing_y_column(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(write(tmp_path, "d.csv", "x1,z\n0,1\n"))


def test_zero_data_rows(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(write(tmp_path, "d.csv", "x1,y\n"))


def test_non_positive_weight(tmp_path):
    with pytest.raises(ParseError) as err:
        load_dataset(write(tmp_path, "d.csv", "x1,y,weight\n0,1,4\n1,3,0\n"))
    assert err.value.line == 3


def test_duplicate_column_names(tmp_path):
    with pytest.raises(ParseError, match="duplicate column names"):
        load_dataset(write(tmp_path, "d.csv", "x1,x1,y\n0,1,2\n"))


def test_non_contiguous_x_columns(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(write(tmp_path, "d.csv", "x1,x3,y\n0,1,2\n"))


def test_unknown_column(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(write(tmp_path, "d.csv", "x1,y,sigma\n0,1,2\n"))


def test_non_finite_value_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(write(tmp_path, "d.csv", "x1,y\n0,inf\n"))


# What loads, and whether the vectorized pass reads it or leaves it to the line
# reader; either way the values are those of Python's float.
@pytest.mark.parametrize("text, x, y, weights, vectorized", [
    ("x1 ,\ty\n 0 ,\t1\t\n1  ,  3\n", [[0.0], [1.0]], [1.0, 3.0], None, True),
    ('"x1",y\n"0","1"\n1,"3"\n', [[0.0], [1.0]], [1.0, 3.0], None, False),
    ("\n\nx1,y\n\n0,1\n\n1,3\n\n", [[0.0], [1.0]], [1.0, 3.0], None, True),
    ("\n \t\nx1,y\n0,1\n  \n1,3\n , \n", [[0.0], [1.0]], [1.0, 3.0], None, False),
    ("x1,y\r\n0,1\r\n\r\n1,3\r\n", [[0.0], [1.0]], [1.0, 3.0], None, True),
    ("\ufeffx1,y\r\n0,1\r\n1,3\r\n", [[0.0], [1.0]], [1.0, 3.0], None, True),
    ("x1,y\n1_000,١٢\n", [[1000.0]], [12.0], None, False),
    ("x1,y\n+.5,5.\n1E3,-0\n", [[0.5], [1000.0]], [5.0, -0.0], None, True),
    ("weight,y,x2,x1\n2,7,2,1\n0.5,8,4,3\n", [[1.0, 2.0], [3.0, 4.0]], [7.0, 8.0],
     [2.0, 0.5], True),
    ('x1,y\n"1\n",2\n', [[1.0]], [2.0], None, False),
], ids=["padded", "quoted", "blank-rows", "whitespace-rows", "crlf", "crlf-bom",
        "python-float-forms", "signs-and-exponents", "weight-any-order",
        "quoted-newline"])
def test_what_loads(tmp_path, text, x, y, weights, vectorized):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(dataio, "_parse_cell", wraps=dataio._parse_cell) as spy:
        data = load_dataset(path)
    assert np.array_equal(data.x, x) and np.array_equal(data.y, y)
    assert np.array_equal(np.signbit(data.y), np.signbit(y))
    assert (data.weights is None) if weights is None else np.array_equal(data.weights,
                                                                         weights)
    assert (spy.call_count == 0) == vectorized


# What is refused, with its message and line: line 2 always loads, and the
# blank line 4 still counts.
@pytest.mark.parametrize("row, message", [
    ("#1,2", "column 'x1' has non-numeric value '#1'"),
    ("0x10,2", "column 'x1' has non-numeric value '0x10'"),
    ("1,nan", "column 'y' must be finite, got 'nan'"),
    ("1e400,2", "column 'x1' must be finite, got '1e400'"),
    ("1,2,", "expected 2 cells, got 3"),
    ("1", "expected 2 cells, got 1"),
    # A finite value, but a cell longer than csv's field size limit.
    ("0." + "0" * 140_000 + "1,2", "field larger than field limit (131072)"),
], ids=["comment", "hex", "nan", "overflow", "trailing-comma", "short-row",
        "field-limit"])
def test_what_is_refused(tmp_path, row, message):
    for text, line in ((f"x1,y\n0,1\n{row}\n", 3), (f"x1,y\n0,1\n1,3\n\n{row}\n", 5)):
        with pytest.raises(ParseError) as err:
            load_dataset(write(tmp_path, "d.csv", text))
        assert str(err.value) == f"line {line}: {message}" and err.value.line == line


# Where the csv reader reads the body, a fault names the line where its record
# starts: blank rows before the header count, and so does a quoted cell that
# spans two lines.  The header is checked before the body is read, and the
# cells of the body in file order, weights too.
@pytest.mark.parametrize("text, message, line", [
    ('x1,y\n"1\n",2\n0,abc\n', "line 4: column 'y' has non-numeric value 'abc'", 4),
    ("\n\nx1,y\n1_000,2\n\n0,abc\n", "line 6: column 'y' has non-numeric value 'abc'", 6),
    ("\n\nx1,y\n1_000,2\n\n0\n", "line 6: expected 2 cells, got 1", 6),
    ("\n" + "x" * 140_000 + ",y\n0,1\n", "line 2: field larger than field limit (131072)", 2),
    ("x1,z\n0,1\n" + "1" * 140_000 + ",2\n", "header is missing the 'y' column", 1),
    ("x1,y,weight\n0,1,0\n1,abc,1\n", "line 2: weight must be strictly positive, got 0.0", 2),
], ids=["quoted-newline", "blank-rows-then-csv", "short-row-after-csv", "header-field-limit",
        "header-before-body", "weight-in-file-order"])
def test_what_is_refused_where_the_csv_reader_reads(tmp_path, text, message, line):
    with pytest.raises(ParseError) as err:
        load_dataset(write(tmp_path, "d.csv", text))
    assert str(err.value) == message and err.value.line == line


# --- run specs ----------------------------------------------------------------

def test_minimal_runspec_defaults(tmp_path):
    write(tmp_path, "d.csv", "x1,y\n0,1\n1,3\n")
    spec = load_runspec(write(
        tmp_path, "run.json",
        json.dumps({"model": {"kind": "linear"}, "dataset": "d.csv"}),
    ))
    assert spec.solver.epsilon == 1e-3
    assert spec.solver.armijo_c == 1e-4
    assert spec.solver.alpha_min == 1e-4
    assert spec.solver.lambda_init == 1e-2
    assert spec.weights == "none"
    assert spec.beta0 is None


def test_runspec_equality_compares_beta0_by_value():
    def spec(beta0, **kwargs):
        return RunSpec(LinearModel(), dataset="d.csv", beta0=beta0, **kwargs)

    assert spec([1.0, 2.0]) == spec([1.0, 2.0])
    assert spec(None) == spec(None)
    assert spec([1.0, 2.0]) != spec([1.0, 3.0])
    assert spec([1.0, 2.0]) != spec(None)
    assert spec([1.0, 2.0]) != spec([1.0, 2.0], n_params=2)


def test_invalid_epsilon_names_key(tmp_path):
    path = write(tmp_path, "run.json", json.dumps(
        {"model": {"kind": "linear"}, "dataset": "d.csv",
         "solver": {"epsilon": -1}}
    ))
    with pytest.raises(ConfigError) as err:
        load_runspec(path)
    assert err.value.key == "epsilon"


def test_runspec_schema_must_match(tmp_path):
    write(tmp_path, "d.csv", "x1,y\n0,1\n1,3\n")
    spec = {"model": {"kind": "linear"}, "dataset": "d.csv"}
    path = write(tmp_path, "run.json",
                 json.dumps({"schema": "broydenfit.runspec/1", **spec}))
    assert isinstance(load_runspec(path).model, LinearModel)
    path = write(tmp_path, "run.json",
                 json.dumps({"schema": "broydenfit.runspec/7", **spec}))
    with pytest.raises(ConfigError) as err:
        load_runspec(path)
    assert err.value.key == "schema"


def test_model_exclusivity(tmp_path):
    path = write(tmp_path, "run.json", json.dumps(
        {"model": {"kind": "linear", "command": ["prog"]}, "dataset": "d.csv"}
    ))
    with pytest.raises(ConfigError) as err:
        load_runspec(path)
    assert err.value.key == "model"


@pytest.mark.parametrize("spec, message", [
    ({"model": {}}, "needs either a 'kind' or a 'command'"),
    ({}, "run spec needs a model"),
], ids=["empty-model", "no-model"])
def test_runspec_needs_a_model(tmp_path, spec, message):
    path = write(tmp_path, "run.json", json.dumps(spec))
    with pytest.raises(ConfigError, match=message) as err:
        load_runspec(path)
    assert err.value.key == "model"


def test_external_model_rejects_dataset(tmp_path):
    path = write(tmp_path, "run.json", json.dumps(
        {"model": {"command": ["prog"]}, "dataset": "d.csv"}
    ))
    with pytest.raises(ConfigError) as err:
        load_runspec(path)
    assert err.value.key == "dataset"


def test_unknown_keys_warn_but_load(tmp_path):
    write(tmp_path, "d.csv", "x1,y\n0,1\n1,3\n")
    path = write(tmp_path, "run.json", json.dumps(
        {"model": {"kind": "linear"}, "dataset": "d.csv",
         "plot": True, "solver": {"verbosity": 3}}
    ))
    with pytest.warns(UserWarning):
        spec = load_runspec(path)
    assert isinstance(spec.model, LinearModel)


def test_runspec_bounds_and_uniform_weights(tmp_path):
    write(tmp_path, "d.csv", "x1,y\n0,1\n1,3\n")
    path = write(tmp_path, "run.json", json.dumps({
        "model": {"kind": "polynomial", "degree": 1},
        "dataset": "d.csv",
        "beta0": [0.5, 0.5],
        "bounds": [[0, 2], [None, 10]],
        "weights": {"uniform": 2.5},
    }))
    spec = load_runspec(path)
    assert isinstance(spec.model, PolynomialModel)
    assert spec.weights == 2.5
    setup = prepare_run(spec, base_dir=str(tmp_path))
    assert np.array_equal(setup.beta0.values, [0.5, 0.5])
    assert setup.beta0.upper[0] == 2.0 and setup.beta0.lower[1] == -np.inf
    assert setup.weights == 2.5


def test_prepare_run_checks_parameter_count(tmp_path):
    write(tmp_path, "d.csv", "x1,y\n0,1\n1,3\n")
    for key, value in (("beta0", [1.0, 2.0, 3.0]), ("bounds", [[0, 1]]), ("n_params", 5)):
        path = write(tmp_path, "run.json", json.dumps({
            "model": {"kind": "linear"}, "dataset": "d.csv", key: value,
        }))
        with pytest.raises(ConfigError) as err:
            prepare_run(load_runspec(path), base_dir=str(tmp_path))
        assert err.value.key == key


def test_prepare_external_needs_problem_size(tmp_path):
    path = write(tmp_path, "run.json", json.dumps({"model": {"command": ["prog"]}}))
    spec = load_runspec(path)
    assert isinstance(spec.model, ExternalEvaluatorSpec)
    with pytest.raises(ConfigError):
        prepare_run(spec)
    path = write(tmp_path, "run2.json", json.dumps(
        {"model": {"command": ["prog"]}, "n_params": 2}
    ))
    setup = prepare_run(load_runspec(path))
    assert np.array_equal(setup.beta0.values, [0.0, 0.0])
    for size in ({"n_params": 3, "beta0": [0, 0]},
                 {"n_params": 3, "bounds": [[0, 1], [0, 1]]}):
        path = write(tmp_path, "run3.json", json.dumps(
            {"model": {"command": ["prog"]}, **size}
        ))
        with pytest.raises(ConfigError) as err:
            prepare_run(load_runspec(path))
        assert err.value.key == "n_params"
    for bad in ({"n_params": 0}, {"bounds": []}):
        path = write(tmp_path, "run4.json", json.dumps(
            {"model": {"command": ["prog"]}, **bad}
        ))
        with pytest.raises(ConfigError) as err:
            load_runspec(path)
        assert err.value.key in bad


def test_external_working_dir_must_be_a_string(tmp_path):
    for working_dir in ("sub", None):
        path = write(tmp_path, "run.json", json.dumps(
            {"model": {"command": ["true"], "working_dir": working_dir}, "n_params": 1}
        ))
        assert load_runspec(path).model.working_dir == working_dir
    for bad in (5, ["sub"]):
        path = write(tmp_path, "run.json", json.dumps(
            {"model": {"command": ["true"], "working_dir": bad}, "n_params": 1}
        ))
        with pytest.raises(ConfigError) as err:
            load_runspec(path)
        assert err.value.key == "working_dir"


def test_weights_column_requires_weight_column(tmp_path):
    write(tmp_path, "d.csv", "x1,y\n0,1\n1,3\n")
    path = write(tmp_path, "run.json", json.dumps({
        "model": {"kind": "linear"}, "dataset": "d.csv", "weights": "column",
    }))
    with pytest.raises(ConfigError):
        prepare_run(load_runspec(path), base_dir=str(tmp_path))


# --- reports -------------------------------------------------------------------

def run_linear():
    return optimize(DatasetEvaluator(LinearModel(), linear_dataset()), n_params=2)


def test_report_json_round_trip(tmp_path):
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    reports = [
        run_linear(),
        optimize(ev, n_params=2, config=SolverConfig(fd_refresh_period=1)),
    ]
    overflowed = run_linear()
    overflowed.iterations[0] = dataclasses.replace(
        overflowed.iterations[0], residual_norm=np.inf, objective=np.inf)
    reports.append(overflowed)
    path = tmp_path / "report.json"
    for report in reports:
        write_report(report, path, format="json")
        assert read_report(path) == report


def test_report_ignores_keys_that_are_not_fields(tmp_path):
    # Reports written before IterationRecord lost its condition estimate
    # carry a "condition" key in each record: a number or null.
    report = run_linear()
    path = tmp_path / "report.json"
    write_report(report, path, format="json")
    raw = json.loads(path.read_text())
    assert all("condition" not in rec for rec in raw["iterations"])
    for condition in (12.5, None):
        for rec in raw["iterations"]:
            rec["condition"] = condition
        path.write_text(json.dumps(raw))
        assert read_report(path) == report


def test_report_missing_keys(tmp_path):
    report = run_linear()
    raw = report_to_dict(report)
    del raw["failure_reason"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(raw))
    assert read_report(path) == report  # failure_reason defaults to None
    path.write_text(json.dumps({"schema": "broydenfit.report/1", "status": "Converged"}))
    with pytest.raises(ParseError, match="final_beta"):
        read_report(path)
    del raw["iterations"][0]["lambda"]
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError, match="lambda"):
        read_report(path)


def test_report_malformed_values(tmp_path):
    path = tmp_path / "report.json"
    raw = report_to_dict(run_linear())
    path.write_text(json.dumps({**raw, "status": "Bogus"}))
    with pytest.raises(ParseError, match="status"):
        read_report(path)
    for bad in ({"final_beta": 5}, {"iterations": [1]}, {"iterations": 2}):
        path.write_text(json.dumps({**raw, **bad}))
        with pytest.raises(ParseError, match=next(iter(bad))):
            read_report(path)


@pytest.mark.parametrize("top", [[1], "report", 3, None])
def test_report_must_be_an_object(tmp_path, top):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(top))
    with pytest.raises(ParseError, match="JSON object"):
        read_report(path)


def test_failed_report_round_trip(tmp_path):
    report = optimize(lambda beta: np.array([np.nan]), n_params=1)
    assert report.status is RunStatus.EvaluatorFailure
    path = tmp_path / "report.json"
    write_report(report, path, format="json")
    raw = json.loads(path.read_text(), parse_constant=refuse_non_standard_json)
    assert raw["final_objective"] == "Infinity"
    loaded = read_report(path)
    assert loaded == report
    assert loaded.final_objective == np.inf


def refuse_non_standard_json(token):
    raise ValueError(f"{token} is not standard JSON")


def test_bounded_report_round_trip(tmp_path):
    from broydenfit import Parameters

    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report = optimize(ev, Parameters([0.0, 0.0], lower=[-5.0, None], upper=[None, 5.0]))
    path = tmp_path / "report.json"
    write_report(report, path, format="json")
    assert read_report(path) == report


def test_csv_trace_rows(tmp_path):
    report = run_linear()
    path = tmp_path / "trace.csv"
    write_report(report, path, format="csv-trace")
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["k", "objective", "residual_norm", "lambda", "alpha",
                      "p_norm", "max_rel_change", "armijo_satisfied"]
    assert len(lines) == 1 + len(report.iterations)
    first = lines[1].split(",")
    assert float(first[1]) == report.iterations[0].objective  # repr round trip


def test_csv_trace_header_only_for_failed_run(tmp_path):
    report = optimize(lambda beta: np.array([np.nan]), n_params=1)
    path = tmp_path / "trace.csv"
    write_report(report, path, format="csv-trace")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1


def test_unknown_report_format(tmp_path):
    with pytest.raises(ConfigError):
        write_report(run_linear(), tmp_path / "x", format="yaml")


def test_numeric_formatting_ignores_locale(tmp_path):
    import locale

    candidates = ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8")
    for name in candidates:
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
            break
        except locale.Error:
            continue
    else:
        pytest.skip("no comma-decimal locale installed")
    try:
        report = run_linear()
        path = tmp_path / "report.json"
        write_report(report, path, format="json")
        assert "," not in json.dumps(report.iterations[0].objective)
        assert read_report(path) == report
        data = load_dataset(write(tmp_path, "d.csv", "x1,y\n0.5,1.25\n1,3\n"))
        assert data.x[0, 0] == 0.5
    finally:
        locale.setlocale(locale.LC_NUMERIC, "C")
