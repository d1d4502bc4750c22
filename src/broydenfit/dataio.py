"""File formats: datasets, run specifications, run reports.

Three small, versioned schemas (documented in the README):

* dataset/1 - comma-separated text with a header naming columns
  ``x1..xd``, ``y``, and optionally ``weight``;
* runspec/1 - JSON describing the model (built-in analytic or external
  command), data, starting point, bounds, weighting, and solver overrides;
* report/1 - JSON dump of a run report, or a CSV iteration trace suitable
  for plotting convergence histories.

Numbers are always written with full round-trip precision and a ``.``
decimal separator, independent of locale.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import typing
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    IterationRecord,
    Parameters,
    RunReport,
    RunStatus,
    SolverConfig,
)
from .errors import ConfigError, ParseError
from .external import ExternalEvaluator, ExternalEvaluatorSpec
from .models import AnalyticModel, Dataset, DatasetEvaluator, make_model

RUNSPEC_SCHEMA = "broydenfit.runspec/1"
REPORT_SCHEMA = "broydenfit.report/1"

_RUNSPEC_KEYS = {
    "schema", "model", "dataset", "beta0", "bounds", "n_params", "solver", "weights",
}
# runspec/1 solver keys: the SolverConfig fields, each with the types it takes.
_SOLVER_TYPES = {name: typing.get_args(hint) or (hint,)
                 for name, hint in typing.get_type_hints(SolverConfig).items()}
_MODEL_ANALYTIC_KEYS = {"kind", "degree"}
_MODEL_EXTERNAL_KEYS = {f.name for f in dataclasses.fields(ExternalEvaluatorSpec)}


def _parse_cell(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"line {line}: column {column!r} has non-numeric value {text!r}", line=line
        ) from None
    if not math.isfinite(value):
        raise ParseError(
            f"line {line}: column {column!r} must be finite, got {text!r}", line=line
        )
    return value


def load_dataset(path) -> Dataset:
    """Read a dataset/1 file.

    The header must name columns ``x1..xd`` (d >= 1, contiguous) and ``y``;
    a ``weight`` column is optional.  Column order is free; rows keep file
    order.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [(i + 1, [c.strip() for c in row]) for i, row in enumerate(rows)]
    rows = [(line, row) for line, row in rows if any(row)]
    if not rows:
        raise ParseError("empty file: expected a header row", line=1)
    header_line, header = rows[0]
    names = [h for h in header]
    if "y" not in names:
        raise ParseError("header is missing the 'y' column", line=header_line)
    if len(set(names)) != len(names):
        raise ParseError("duplicate column names in header", line=header_line)
    x_names = [h for h in names if h.startswith("x")]
    d = len(x_names)
    expected_x = [f"x{j}" for j in range(1, d + 1)]
    if d == 0 or sorted(x_names) != sorted(expected_x):
        raise ParseError(
            f"expected contiguous columns x1..xd, got {x_names}", line=header_line
        )
    extras = set(names) - set(expected_x) - {"y", "weight"}
    if extras:
        raise ParseError(f"unknown columns {sorted(extras)}", line=header_line)

    col = {name: names.index(name) for name in names}
    data_rows = rows[1:]
    if not data_rows:
        raise ParseError("no data rows after the header", line=header_line + 1)
    x = np.empty((len(data_rows), d))
    y = np.empty(len(data_rows))
    w = np.empty(len(data_rows)) if "weight" in col else None
    for i, (line, row) in enumerate(data_rows):
        if len(row) != len(names):
            raise ParseError(
                f"line {line}: expected {len(names)} cells, got {len(row)}", line=line
            )
        for j, name in enumerate(expected_x):
            x[i, j] = _parse_cell(row[col[name]], line, name)
        y[i] = _parse_cell(row[col["y"]], line, "y")
        if w is not None:
            w[i] = _parse_cell(row[col["weight"]], line, "weight")
            if w[i] <= 0:
                raise ParseError(
                    f"line {line}: weight must be strictly positive, got {w[i]}",
                    line=line,
                )
    return Dataset(x=x, y=y, weights=w)


@dataclass(frozen=True)
class RunSpec:
    """Validated run description (see runspec/1 in the README)."""

    model: AnalyticModel | ExternalEvaluatorSpec
    dataset_path: str | None = None
    beta0: np.ndarray | None = None
    bounds: tuple | None = None
    n_params: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    weights: str | float = "none"

    @property
    def is_external(self) -> bool:
        return isinstance(self.model, ExternalEvaluatorSpec)


def _number(obj, key: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{key} must be a number, got {obj!r}", key=key)
    return float(obj)


def _parse_solver(raw: dict) -> SolverConfig:
    if not isinstance(raw, dict):
        raise ConfigError("solver must be an object", key="solver")
    unknown = set(raw) - set(_SOLVER_TYPES)
    if unknown:
        warnings.warn(f"ignoring unknown solver keys: {sorted(unknown)}")
    kwargs = {}
    for key in _SOLVER_TYPES.keys() & set(raw):
        value, types = raw[key], _SOLVER_TYPES[key]
        if value is None:
            if type(None) not in types:
                raise ConfigError(f"{key} must not be null", key=key)
            kwargs[key] = None
        elif int in types:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer", key=key)
            kwargs[key] = value
        else:
            kwargs[key] = _number(value, key)
    return SolverConfig(**kwargs)


def _parse_model(raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError("model must be an object", key="model")
    analytic = set(raw) & _MODEL_ANALYTIC_KEYS
    external = set(raw) & _MODEL_EXTERNAL_KEYS
    if analytic and external:
        raise ConfigError(
            "model mixes analytic keys and an external command; give exactly one",
            key="model",
        )
    unknown = set(raw) - _MODEL_ANALYTIC_KEYS - _MODEL_EXTERNAL_KEYS
    if unknown:
        warnings.warn(f"ignoring unknown model keys: {sorted(unknown)}")
    if external:
        command = raw.get("command")
        if not isinstance(command, list) or not all(isinstance(c, str) for c in command):
            raise ConfigError("command must be a list of strings", key="command")
        kwargs = {"command": tuple(command), "working_dir": raw.get("working_dir")}
        if not isinstance(kwargs["working_dir"], (str, type(None))):
            raise ConfigError("working_dir must be a string", key="working_dir")
        if "timeout" in raw:
            kwargs["timeout"] = _number(raw["timeout"], "timeout")
        return ExternalEvaluatorSpec(**kwargs)
    if not analytic:
        raise ConfigError("model needs either a 'kind' or a 'command'", key="model")
    kind = raw.get("kind")
    degree = raw.get("degree")
    if degree is not None and (isinstance(degree, bool) or not isinstance(degree, int)):
        raise ConfigError("degree must be an integer", key="degree")
    return make_model(kind, degree)


def load_runspec(path) -> RunSpec:
    """Read and validate a runspec/1 file.

    Unknown keys only warn (forward compatibility); invalid values raise
    :class:`ConfigError` naming the key.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(raw, dict):
        raise ConfigError("run spec must be a JSON object", key="runspec")
    if raw.get("schema", RUNSPEC_SCHEMA) != RUNSPEC_SCHEMA:
        raise ConfigError(f"unsupported run-spec schema {raw['schema']!r}", key="schema")
    unknown = set(raw) - _RUNSPEC_KEYS
    if unknown:
        warnings.warn(f"ignoring unknown run-spec keys: {sorted(unknown)}")
    if "model" not in raw:
        raise ConfigError("run spec needs a model", key="model")
    model = _parse_model(raw["model"])
    external = isinstance(model, ExternalEvaluatorSpec)

    dataset_path = raw.get("dataset")
    if external and dataset_path is not None:
        raise ConfigError(
            "an external evaluator embeds its data; remove the dataset entry",
            key="dataset",
        )
    if not external and dataset_path is None:
        raise ConfigError("analytic models require a dataset", key="dataset")

    beta0 = raw.get("beta0")
    if beta0 is not None:
        if not isinstance(beta0, list) or not beta0:
            raise ConfigError("beta0 must be a non-empty array", key="beta0")
        beta0 = np.asarray([_number(v, "beta0") for v in beta0])

    bounds = raw.get("bounds")
    if bounds is not None:
        if not isinstance(bounds, list) or not bounds or not all(
            isinstance(b, list) and len(b) == 2 for b in bounds
        ):
            raise ConfigError("bounds must be a non-empty array of [lower, upper] pairs",
                              key="bounds")
        bounds = tuple(
            (None if lo is None else _number(lo, "bounds"),
             None if hi is None else _number(hi, "bounds"))
            for lo, hi in bounds
        )

    n_params = raw.get("n_params")
    if n_params is not None and (isinstance(n_params, bool) or not isinstance(n_params, int)
                                 or n_params < 1):
        raise ConfigError("n_params must be a positive integer", key="n_params")

    weights = raw.get("weights", "none")
    if isinstance(weights, dict) and set(weights) == {"uniform"}:
        weights = _number(weights["uniform"], "weights")
        if weights <= 0:
            raise ConfigError("uniform weight must be positive", key="weights")
    elif weights not in ("none", "column"):
        raise ConfigError(
            "weights must be 'none', 'column', or {'uniform': value}", key="weights"
        )
    if weights == "column" and external:
        raise ConfigError("weights='column' requires a dataset", key="weights")

    solver = _parse_solver(raw.get("solver", {}))
    return RunSpec(
        model=model,
        dataset_path=dataset_path,
        beta0=beta0,
        bounds=bounds,
        n_params=n_params,
        solver=solver,
        weights=weights,
    )


@dataclass
class RunSetup:
    """Everything a fitting command needs, resolved from a RunSpec."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    beta0: Parameters
    config: SolverConfig
    weights: np.ndarray | float | None
    model: AnalyticModel | None = None

    def close(self):
        if isinstance(self.evaluate, ExternalEvaluator):
            self.evaluate.close()

    def __enter__(self) -> "RunSetup":
        return self

    def __exit__(self, *exc_info):
        self.close()


def prepare_run(spec: RunSpec, base_dir: str | None = None) -> RunSetup:
    """Bind a RunSpec to an evaluator and a starting point.

    Relative dataset paths resolve against ``base_dir`` (normally the
    directory containing the run-spec file).  ``beta0``, ``bounds`` and
    ``n_params``, where given, must agree with the model's parameter count;
    an external run takes its count from the first of them given.
    """
    sizes = {
        "beta0": None if spec.beta0 is None else spec.beta0.size,
        "bounds": None if spec.bounds is None else len(spec.bounds),
        "n_params": spec.n_params,
    }
    dataset = None
    if spec.is_external:
        n = next((size for size in sizes.values() if size is not None), None)
        if n is None:
            raise ConfigError(
                "external runs need beta0, bounds, or n_params to size the problem",
                key="beta0",
            )
    else:
        path = spec.dataset_path
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        dataset = load_dataset(path)
        n = spec.model.param_count(dataset.d)
    for key, size in sizes.items():
        if size is not None and size != n:
            raise ConfigError(f"{key} gives {size} parameters but the run has {n}",
                              key=key)

    lower, upper = zip(*spec.bounds) if spec.bounds is not None else (None, None)
    beta0 = Parameters(spec.beta0 if spec.beta0 is not None else np.zeros(n),
                       lower, upper)
    weights = None if spec.weights == "none" else spec.weights
    if weights == "column":
        weights = dataset.weights
        if weights is None:
            raise ConfigError("weights='column' but the dataset has no weight column",
                              key="weights")
    if dataset is None:
        return RunSetup(ExternalEvaluator(spec.model), beta0, spec.solver, weights)
    return RunSetup(DatasetEvaluator(spec.model, dataset), beta0, spec.solver, weights,
                    model=spec.model)


# ---------------------------------------------------------------------------
# Reports
#
# A report/1 object has one key per dataclass field, in field order; only
# these fields are written under another name.
_REPORT_KEYS = {"lam": "lambda"}
_REPORT_FIELDS = {key: name for name, key in _REPORT_KEYS.items()}

TRACE_COLUMNS = (
    "k", "objective", "residual_norm", "lambda", "alpha", "p_norm",
    "max_rel_change", "armijo_satisfied",
)


def _to_data(value):
    """A report field as JSON data; infinite bounds are written as null."""
    if dataclasses.is_dataclass(value):
        return {_REPORT_KEYS.get(f.name, f.name): _to_data(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, list):
        return [_to_data(v) for v in value]
    if isinstance(value, np.ndarray):
        return [v if math.isfinite(v) else None for v in value.tolist()]
    if isinstance(value, RunStatus):
        return value.value
    return value


def _from_data(cls, raw: dict):
    """A ``cls`` from its report/1 object.  A missing key takes the field's
    default; one without a default, or a value that does not decode, fails."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        key = _REPORT_KEYS.get(f.name, f.name)
        if key in raw:
            try:
                kwargs[f.name] = _DECODE.get(f.name, lambda v: v)(raw[key])
            except (TypeError, ValueError) as exc:
                raise ParseError(f"invalid {key!r} of a {cls.__name__}: {exc}") from exc
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ParseError(f"report is missing {key!r} of a {cls.__name__}")
    return cls(**kwargs)


# Fields whose report/1 value is not the field value itself.
_DECODE = {
    "status": RunStatus,
    "final_beta": lambda raw: _from_data(Parameters, raw),
    "iterations": lambda raw: [_from_data(IterationRecord, rec) for rec in raw],
    "beta": lambda raw: np.asarray(raw, dtype=float),
}


def report_to_dict(report: RunReport) -> dict:
    return {"schema": REPORT_SCHEMA, **_to_data(report)}


def report_from_dict(raw: dict) -> RunReport:
    if not isinstance(raw, dict):
        raise ParseError("report must be a JSON object")
    if raw.get("schema") != REPORT_SCHEMA:
        raise ParseError(f"unsupported report schema {raw.get('schema')!r}")
    return _from_data(RunReport, raw)


def _trace_cell(value) -> str:
    """A csv-trace cell: ``true``/``false``, or the value at full precision."""
    return ("true" if value else "false") if isinstance(value, bool) else repr(value)


def write_report(report: RunReport, path, format: str = "json") -> None:
    """Serialize a run report: ``json`` (lossless) or ``csv-trace``."""
    if format == "json":
        with open(path, "w") as fh:
            json.dump(report_to_dict(report), fh, indent=2)
            fh.write("\n")
    elif format == "csv-trace":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for rec in report.iterations:
                writer.writerow([_trace_cell(getattr(rec, _REPORT_FIELDS.get(c, c)))
                                 for c in TRACE_COLUMNS])
    else:
        raise ConfigError(f"unknown report format {format!r}", key="format")


def read_report(path) -> RunReport:
    """Load a report/1 JSON file back into a :class:`RunReport`."""
    with open(path) as fh:
        return report_from_dict(json.load(fh))
