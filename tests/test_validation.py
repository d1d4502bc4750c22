"""One validation path per input.

The configuration records check their own field types when they are built,
so a runspec/1 file and the Python constructors obey the same rules and fail
the same way: a :class:`ConfigError` naming the key.  Decoded reports are
checked by the same rules, and a malformed report is a :class:`ParseError`.
"""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from broydenfit import (
    ConfigError,
    Dataset,
    DatasetEvaluator,
    ExternalEvaluatorSpec,
    FdConfig,
    LinearModel,
    Parameters,
    ParseError,
    PolynomialModel,
    SolverConfig,
    make_model,
    optimize,
)
from broydenfit.cli import main
from broydenfit.dataio import (
    RunSpec,
    load_dataset,
    load_runspec,
    read_report,
    report_to_dict,
)
from broydenfit.errors import _field_types
from broydenfit.models import MODEL_KINDS

from conftest import json_values, linear_dataset

fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
# What a Python caller might pass: JSON values, and some that JSON cannot carry.
python_values = (json_values | st.tuples(st.text(max_size=4)) | st.complex_numbers()
                 | st.fractions() | st.decimals() | st.floats().map(np.float64)
                 | st.integers(-3, 3).map(np.int64) | st.just(10**400))


# --- the cases each input route used to get wrong -------------------------------

@pytest.mark.parametrize("build, key", [
    (lambda: SolverConfig(max_iterations=10.0), "max_iterations"),
    (lambda: SolverConfig(fd_refresh_period=2.5), "fd_refresh_period"),
    (lambda: SolverConfig(epsilon="1e-3"), "epsilon"),
    (lambda: SolverConfig(max_iterations=True), "max_iterations"),
    (lambda: SolverConfig(armijo_c=None), "armijo_c"),
    (lambda: FdConfig(h_rel="x"), "h_rel"),
    (lambda: FdConfig(scheme=["central"]), "scheme"),
    (lambda: ExternalEvaluatorSpec(command="prog"), "command"),
    (lambda: ExternalEvaluatorSpec(command=["prog", 1]), "command"),
    (lambda: ExternalEvaluatorSpec(command=["prog"], working_dir=5), "working_dir"),
    (lambda: ExternalEvaluatorSpec(command=["prog"], timeout="x"), "timeout"),
    (lambda: ExternalEvaluatorSpec(command=["prog"], timeout=math.inf), "timeout"),
    (lambda: make_model("polynomial", 1.5), "degree"),
    (lambda: make_model("polynomial", True), "degree"),
    (lambda: make_model("linear", "x"), "degree"),
    (lambda: RunSpec(LinearModel(), dataset=5), "dataset"),
    (lambda: RunSpec(LinearModel(), dataset="d.csv", n_params=2.0), "n_params"),
    (lambda: RunSpec(LinearModel(), dataset="d.csv", solver={}), "solver"),
    (lambda: RunSpec(LinearModel(), dataset="d.csv", weights=-1.0), "weights"),
    # arrays: the element types are checked before numpy converts them
    pytest.param(lambda: Parameters(["1", True]), "beta0", id="values-str"),
    pytest.param(lambda: Parameters([1.0, True]), "beta0", id="values-bool"),
    pytest.param(lambda: Parameters([0.0], lower=["0"]), "bounds", id="bounds-str"),
    pytest.param(lambda: Dataset(x=[["0"]], y=[1.0]), "x", id="x-str"),
    pytest.param(lambda: Dataset(x=[[0.0], [1.0]], y=[1.0, True]), "y", id="y-bool"),
    pytest.param(lambda: Dataset(x=[[0.0]], y=[1.0], weights=[True]), "weights",
                 id="dataset-weights-bool"),
    pytest.param(lambda: optimize(DatasetEvaluator(LinearModel(), linear_dataset()),
                                  n_params=2, weights="2"), "weights", id="optimize-weights"),
    pytest.param(lambda: optimize(lambda b: b), "beta0", id="optimize-no-beta0"),
    pytest.param(lambda: optimize(lambda b: np.repeat(b, 2), [1.0], SolverConfig(
        perturbation_rel=1e-20, perturbation_abs=1e-300)), "perturbation_rel",
                 id="perturbation-lost-to-rounding"),
    pytest.param(lambda: Parameters([0.0], lower=[np.nan]), "bounds", id="bounds-nan"),
    pytest.param(lambda: Dataset(x=np.zeros((0, 1)), y=np.zeros(0)), "dataset",
                 id="dataset-no-rows"),
    pytest.param(lambda: Dataset(x=[[0.0]], y=[1.0], weights=[1.0, 1.0]), "weights",
                 id="dataset-weights-length"),
    pytest.param(lambda: PolynomialModel(degree=-1), "degree", id="negative-degree"),
    pytest.param(lambda: RunSpec(LinearModel(), dataset="d.csv", beta0=[0, True]), "beta0",
                 id="runspec-beta0-bool"),
    # a degree only for the polynomial
    pytest.param(lambda: make_model("linear", 3), "degree", id="linear-degree"),
    pytest.param(lambda: make_model("logistic", 0), "degree", id="logistic-degree"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_wrong_types_raise_config_error_naming_the_key(build, key):
    with pytest.raises(ConfigError) as err:
        build()
    assert err.value.key == key
    assert key in str(err.value)


_EXT = ExternalEvaluatorSpec(command=["prog"])
_RUNSPEC_WEIGHTS = "weights must be 'none', 'column' or {'uniform': w > 0}"
_NO_DATASET = "an analytic model needs a dataset; an external one embeds its data"
_TIMEOUT = f"timeout must be in (0, {threading.TIMEOUT_MAX:g}] s"


# Each value rule of the five configuration records, and a wrongly typed value
# of each, which fails the type pass before any rule is built.  The value a
# message quotes is the one stored, so an int in a float field quotes as a float.
@pytest.mark.parametrize("build, key, message", [
    pytest.param(lambda: SolverConfig(epsilon=0), "epsilon",
                 "invalid value for epsilon: 0.0", id="solver-epsilon"),
    pytest.param(lambda: SolverConfig(epsilon=math.nan), "epsilon",
                 "invalid value for epsilon: nan", id="solver-epsilon-nan"),
    pytest.param(lambda: SolverConfig(armijo_c=1.0), "armijo_c",
                 "invalid value for armijo_c: 1.0", id="solver-armijo_c"),
    pytest.param(lambda: SolverConfig(alpha_min=1.5), "alpha_min",
                 "invalid value for alpha_min: 1.5", id="solver-alpha_min"),
    pytest.param(lambda: SolverConfig(lambda_init=-1e-300), "lambda_init",
                 "invalid value for lambda_init: -1e-300", id="solver-lambda_init"),
    pytest.param(lambda: SolverConfig(lambda_decrease=1.0), "lambda_decrease",
                 "invalid value for lambda_decrease: 1.0", id="solver-lambda_decrease"),
    pytest.param(lambda: SolverConfig(lambda_increase=1.0), "lambda_increase",
                 "invalid value for lambda_increase: 1.0", id="solver-lambda_increase"),
    pytest.param(lambda: SolverConfig(perturbation_rel=0.0), "perturbation_rel",
                 "invalid value for perturbation_rel: 0.0", id="solver-perturbation_rel"),
    pytest.param(lambda: SolverConfig(perturbation_abs=-0.01), "perturbation_abs",
                 "invalid value for perturbation_abs: -0.01", id="solver-perturbation_abs"),
    pytest.param(lambda: SolverConfig(max_iterations=1), "max_iterations",
                 "invalid value for max_iterations: 1", id="solver-max_iterations"),
    pytest.param(lambda: SolverConfig(fd_refresh_period=0), "fd_refresh_period",
                 "invalid value for fd_refresh_period: 0", id="solver-fd_refresh_period"),
    pytest.param(lambda: SolverConfig(epsilon=-1.0, max_iterations=0), "epsilon",
                 "invalid value for epsilon: -1.0", id="solver-first-rule-wins"),
    pytest.param(lambda: SolverConfig(epsilon="x"), "epsilon",
                 "epsilon must be a number, got 'x'", id="solver-type"),
    pytest.param(lambda: FdConfig(scheme="backward"), "scheme",
                 "invalid value for scheme: 'backward'", id="fd-scheme"),
    pytest.param(lambda: FdConfig(h_rel=0.0), "h_rel",
                 "invalid value for h_rel: 0.0", id="fd-h_rel"),
    pytest.param(lambda: FdConfig(h_abs=-1e-8), "h_abs",
                 "invalid value for h_abs: -1e-08", id="fd-h_abs"),
    pytest.param(lambda: FdConfig(h_abs=None), "h_abs",
                 "h_abs must be a number, got None", id="fd-type"),
    pytest.param(lambda: ExternalEvaluatorSpec(command=[]), "command",
                 "external evaluator command must be non-empty", id="external-command"),
    pytest.param(lambda: ExternalEvaluatorSpec(command=["prog"], timeout=0), "timeout",
                 _TIMEOUT, id="external-timeout"),
    pytest.param(lambda: ExternalEvaluatorSpec(command=["prog"], timeout=1e300), "timeout",
                 _TIMEOUT, id="external-timeout-max"),
    pytest.param(lambda: ExternalEvaluatorSpec(command=["prog"], timeout="x"), "timeout",
                 "timeout must be a number, got 'x'", id="external-type"),
    pytest.param(lambda: PolynomialModel(degree=-1), "degree",
                 "polynomial degree must be >= 0", id="polynomial-degree"),
    pytest.param(lambda: PolynomialModel(degree=1.5), "degree",
                 "degree must be an integer, got 1.5", id="polynomial-type"),
    pytest.param(lambda: RunSpec(LinearModel()), "dataset", _NO_DATASET,
                 id="runspec-analytic-no-dataset"),
    pytest.param(lambda: RunSpec(_EXT, dataset="d.csv"), "dataset", _NO_DATASET,
                 id="runspec-external-dataset"),
    pytest.param(lambda: RunSpec(LinearModel(), dataset="d.csv", n_params=0), "n_params",
                 "n_params must be a positive integer", id="runspec-n_params"),
    pytest.param(lambda: RunSpec(LinearModel(), dataset="d.csv", weights="all"), "weights",
                 _RUNSPEC_WEIGHTS, id="runspec-weights-name"),
    pytest.param(lambda: RunSpec(LinearModel(), dataset="d.csv", weights=0), "weights",
                 _RUNSPEC_WEIGHTS, id="runspec-weights-uniform"),
    pytest.param(lambda: RunSpec(_EXT, n_params=1, weights="column"), "weights",
                 "weights='column' requires a dataset", id="runspec-weights-column"),
    pytest.param(lambda: RunSpec(LinearModel(), dataset="d.csv", solver={}), "solver",
                 "solver must be SolverConfig, got {}", id="runspec-type"),
])
def test_each_value_rule_names_its_key_and_message(build, key, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert (err.value.key, str(err.value)) == (key, message)


def test_records_store_the_annotated_types():
    config = SolverConfig(epsilon=1, lambda_init=0, max_iterations=np.int64(5))
    assert type(config.epsilon) is float and config.epsilon == 1.0
    assert type(config.lambda_init) is float
    assert config == SolverConfig(epsilon=1.0, lambda_init=0.0, max_iterations=5)
    assert ExternalEvaluatorSpec(command=["prog", "arg"]).command == ("prog", "arg")
    assert type(ExternalEvaluatorSpec(command=["prog"], timeout=2).timeout) is float
    assert make_model("polynomial", 2).param_count(1) == 3
    # a model's kind is a class constant, not a field
    assert _field_types(PolynomialModel) == [("degree", (int,))]
    assert _field_types(LinearModel) == []
    with pytest.raises(TypeError):
        LinearModel(kind="logistic")


def test_runspec_file_and_constructor_share_the_rules(tmp_path):
    """The same wrong value fails the same way from a file and from Python."""
    cases = [
        ({"solver": {"max_iterations": 10.0}}, lambda: SolverConfig(max_iterations=10.0)),
        ({"solver": {"fd_refresh_period": 2.5}},
         lambda: SolverConfig(fd_refresh_period=2.5)),
        ({"model": {"kind": "polynomial", "degree": 1.5}},
         lambda: make_model("polynomial", 1.5)),
        ({"dataset": 5}, lambda: RunSpec(LinearModel(), dataset=5)),
        ({"model": {"kind": "linear", "degree": 3}}, lambda: make_model("linear", 3)),
        ({"beta0": [0, True]},
         lambda: RunSpec(LinearModel(), dataset="d.csv", beta0=[0, True])),
    ]
    for override, build in cases:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {"model": {"kind": "linear"}, "dataset": "d.csv", **override}))
        with pytest.raises(ConfigError) as from_file:
            load_runspec(path)
        with pytest.raises(ConfigError) as from_python:
            build()
        assert (from_file.value.key, str(from_file.value)) == (
            from_python.value.key, str(from_python.value))


def test_external_spec_keys_are_checked_from_a_file(tmp_path):
    path = tmp_path / "run.json"
    for model, key in (({"command": "prog"}, "command"),
                       ({"working_dir": "."}, "command"),
                       ({"command": ["prog"], "timeout": "x"}, "timeout"),
                       ({"command": ["prog"], "working_dir": 5}, "working_dir")):
        path.write_text(json.dumps({"model": model, "n_params": 1}))
        with pytest.raises(ConfigError) as err:
            load_runspec(path)
        assert err.value.key == key


def test_fit_with_a_non_string_dataset_exits_1(tmp_path, capsys):
    spec = tmp_path / "run.json"
    spec.write_text(json.dumps({"model": {"kind": "linear"}, "dataset": 5}))
    assert main(["fit", "--spec", str(spec)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dataset must be") and "Traceback" not in err


def test_numpy_integers_configure_a_run():
    """A config that passed its checks runs: no TypeError from the loop."""
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    report = optimize(ev, n_params=2, config=SolverConfig(max_iterations=np.int64(50),
                                                          fd_refresh_period=3))
    assert report.status.value == "Converged"


# --- fuzzing the constructors -----------------------------------------------------

solver_fields = st.sampled_from([
    "epsilon", "armijo_c", "alpha_min", "lambda_init", "lambda_decrease",
    "lambda_increase", "perturbation_rel", "perturbation_abs", "max_iterations",
    "fd_refresh_period",
])


@fuzz
@given(st.dictionaries(solver_fields, python_values, max_size=3))
def test_solver_config_raises_only_config_error(kwargs):
    try:
        SolverConfig(**kwargs)
    except ConfigError:
        pass


@fuzz
@given(st.dictionaries(st.sampled_from(["scheme", "h_rel", "h_abs"]), python_values))
def test_fd_config_raises_only_config_error(kwargs):
    try:
        FdConfig(**kwargs)
    except ConfigError:
        pass


@fuzz
@given(python_values | st.lists(st.text(max_size=4), max_size=3),
       st.dictionaries(st.sampled_from(["working_dir", "timeout"]), python_values))
def test_external_spec_raises_only_config_error(command, kwargs):
    try:
        ExternalEvaluatorSpec(command, **kwargs)
    except ConfigError:
        pass


@fuzz
@given(st.sampled_from(MODEL_KINDS) | python_values, python_values)
def test_make_model_raises_only_config_error(kind, degree):
    try:
        make_model(kind, degree)
    except ConfigError:
        pass


# --- fuzzing the input files ------------------------------------------------------

ANALYTIC = {"model": {"kind": "polynomial", "degree": 1}, "dataset": "d.csv",
            "beta0": [0, 0], "bounds": [[-1, 1], [None, None]],
            "weights": {"uniform": 2}, "solver": {"epsilon": 1e-3}}
EXTERNAL = {"model": {"command": ["prog"], "working_dir": ".", "timeout": 5},
            "n_params": 2, "weights": "none"}
RUNSPEC_KEYS = ("schema", "model", "dataset", "beta0", "bounds", "n_params", "solver",
                "weights")
# (spec, path to the replaced value): every key of both specs and their objects.
RUNSPEC_PATHS = (
    [(spec, (key,)) for spec in (ANALYTIC, EXTERNAL) for key in RUNSPEC_KEYS]
    + [(ANALYTIC, ("model", key)) for key in ("kind", "degree", "command")]
    + [(EXTERNAL, ("model", key)) for key in ("command", "working_dir", "timeout",
                                                "kind")]
    + [(ANALYTIC, ("solver", key)) for key in ("epsilon", "max_iterations",
                                                 "fd_refresh_period")]
)


def replaced(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@fuzz
@pytest.mark.filterwarnings("ignore::UserWarning")  # unknown keys only warn
@given(st.sampled_from(RUNSPEC_PATHS), json_values)
@example((ANALYTIC, ("dataset",)), 5)
@example((ANALYTIC, ("beta0",)), [10**400])
@example((EXTERNAL, ("model", "timeout")), 1e300)
def test_load_runspec_raises_only_config_or_parse_error(tmp_path, case, value):
    spec, path = case
    (tmp_path / "run.json").write_text(json.dumps(replaced(spec, path, value)))
    try:
        load_runspec(tmp_path / "run.json")
    except (ConfigError, ParseError):
        pass


@fuzz
@pytest.mark.filterwarnings("ignore::UserWarning")
@given(st.text(max_size=40))
@example("[" * 100_000)
@example("\udcff")
def test_load_runspec_of_any_text_raises_only_config_or_parse_error(tmp_path, text):
    (tmp_path / "run.json").write_bytes(text.encode("utf-8", "surrogateescape"))
    try:
        load_runspec(tmp_path / "run.json")
    except (ConfigError, ParseError):
        pass


# dataset/1 text close enough to the format to get past the header, and any bytes.
dataset_bytes = st.binary(max_size=40) | st.builds(
    lambda header, rows, tail: (header + rows).encode() + tail,
    st.sampled_from(["x1,y\n", "y,x1,weight\r\n", "x1,x2,y\n", '"x1",y\n']),
    st.text(alphabet='0123456789.,-+eEinfa_ "\n\r\x00\u00e9', max_size=40),
    st.binary(max_size=3))


@fuzz
@given(dataset_bytes)
@example(b"x1,y\n0,1\n1,3\xff\n")
@example(b"x1,y\n0,1\n" + b"1" * 200_000 + b",1\n")
def test_load_dataset_of_any_bytes_raises_only_parse_error(tmp_path, data):
    (tmp_path / "d.csv").write_bytes(data)
    try:
        load_dataset(tmp_path / "d.csv")
    except ParseError:
        pass


# --- reports ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report_data():
    ev = DatasetEvaluator(LinearModel(), linear_dataset())
    return report_to_dict(optimize(ev, [0.5, 0.5]))


@pytest.mark.parametrize("path, value", [
    (("final_beta", "lower"), [1.0, 1.0]),          # crosses the upper bound
    (("final_beta", "upper"), [0.0, 0.0]),          # values outside the bounds
    (("final_beta", "values"), [[1.0], [2.0]]),     # nested
    (("final_beta", "values"), [1e400, 0.0]),       # not finite
    (("iterations", 0, "k"), "x"),
    (("iterations", 0, "armijo_satisfied"), 1),
    (("iterations", 0, "lambda"), None),
    (("evaluation_count", ), 2.5),
    (("final_objective", ), "0"),
    (("failure_reason", ), 5),
    (("iterations", 0, "beta"), ["3", True]),      # a string and a bool
    (("final_beta", "values"), ["1", "2.5"]),       # strings
    (("final_objective", ), "inf"),                 # not one of the non-finite forms
])
def test_read_report_rejects_malformed_values_with_parse_error(tmp_path, report_data,
                                                               path, value):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(replaced(report_data, path, value)))
    with pytest.raises(ParseError) as err:
        read_report(report)
    assert str(err.value).startswith(f"invalid {path[0]!r}")


def test_read_report_keeps_numbers_as_floats(tmp_path, report_data):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(replaced(report_data, ("iterations", 0, "alpha"), 1)))
    assert type(read_report(report).iterations[0].alpha) is float


REPORT_PATHS = st.sampled_from(
    [("schema",), ("status",), ("final_beta",), ("final_objective",), ("iterations",),
     ("evaluation_count",), ("failure_reason",)]
    + [("final_beta", key) for key in ("values", "lower", "upper")]
    + [("iterations", 0, key) for key in ("k", "beta", "residual_norm", "objective",
                                          "lambda", "alpha", "p_norm", "max_rel_change",
                                          "armijo_satisfied")]
)


@fuzz
@given(REPORT_PATHS, json_values)
@example(("final_beta", "values"), [10**400, 0])
@example(("iterations", 0, "beta"), [[1.0, 2.0], [3.0]])
def test_read_report_raises_only_parse_error(tmp_path, report_data, path, value):
    (tmp_path / "report.json").write_text(json.dumps(replaced(report_data, path, value)))
    try:
        read_report(tmp_path / "report.json")
    except ParseError:
        pass


@fuzz
@given(json_values.map(json.dumps) | st.text(max_size=40))
@example("[" * 100_000)
def test_read_report_of_any_file_raises_only_parse_error(tmp_path, text):
    (tmp_path / "report.json").write_text(text)
    try:
        read_report(tmp_path / "report.json")
    except ParseError:
        pass
