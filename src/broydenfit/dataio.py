"""File formats: datasets, run specifications, run reports.

Three small, versioned schemas (documented in the README):

* dataset/1 - comma-separated text with a header naming columns
  ``x1..xd``, ``y``, and optionally ``weight``.  The body is parsed in one
  vectorized numpy pass; a csv reader that reads one record at a time
  defines the format, and runs only where that pass fails or refuses, to
  name the fault and its line or to read what numpy does not;
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
import io
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BroydenFitError, ConfigError, ParseError, check_fields, check_type
from .errors import _field_types
from .external import ExternalEvaluator, ExternalEvaluatorSpec
from .models import AnalyticModel, Dataset, DatasetEvaluator, make_model
from .records import (
    IterationRecord,
    Parameters,
    RunReport,
    RunStatus,
    SolverConfig,
    _fields_equal,
)

RUNSPEC_SCHEMA = "broydenfit.runspec/1"
REPORT_SCHEMA = "broydenfit.report/1"

_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}
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
    """Read a dataset/1 file, UTF-8 text with or without a byte-order mark.

    The header must name columns ``x1..xd`` (d >= 1, contiguous) and ``y``;
    a ``weight`` column is optional.  Column order is free; rows keep file
    order.  A path ``open`` refuses as a value is a ``ConfigError`` naming ``dataset``.
    Values are those of Python's ``float``, whichever of :func:`_read_table`
    and :func:`_read_rows` reads them.
    """
    text = _read_text(path)
    names, table = _read_table(text) or _read_rows(text)
    col = dict(zip(names, table.T))
    d = sum(name.startswith("x") for name in names)
    return Dataset(x=np.column_stack([col[f"x{j}"] for j in range(1, d + 1)]),
                   y=col["y"], weights=col.get("weight"))


def _read_text(path) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except ValueError as exc:  # a NUL byte in the path
        raise ConfigError(f"dataset path {path!r}: {exc}", key="dataset") from None
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object: the bytes after the mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {line}: not UTF-8 text ({exc.reason})", line=line) from None


def _check_header(names: list, line: int) -> None:
    if "y" not in names:
        raise ParseError("header is missing the 'y' column", line=line)
    if len(set(names)) != len(names):
        raise ParseError("duplicate column names in header", line=line)
    x_names = [h for h in names if h.startswith("x")]
    expected_x = [f"x{j}" for j in range(1, len(x_names) + 1)]
    if not x_names or sorted(x_names) != sorted(expected_x):
        raise ParseError(f"expected contiguous columns x1..xd, got {x_names}", line=line)
    extras = set(names) - set(expected_x) - {"y", "weight"}
    if extras:
        raise ParseError(f"unknown columns {sorted(extras)}", line=line)


def _stripped(row: list) -> list:
    return [c.strip() for c in row]


def _read_rows(text: str) -> tuple[list, np.ndarray]:
    """The header and the table of dataset/1 ``text``, read one csv record at
    a time.  This reader defines the format: every :class:`ParseError` past
    the text's decoding comes from it, naming the record's line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(i + 1, _stripped(row)) for i, row in enumerate(reader)]
    except csv.Error as exc:  # a cell beyond csv's field size limit
        raise ParseError(f"line {reader.line_num}: {exc}", line=reader.line_num) from None
    rows = [(line, row) for line, row in rows if any(row)]
    if not rows:
        raise ParseError("empty file: expected a header row", line=1)
    header_line, names = rows[0]
    _check_header(names, header_line)
    if len(rows) == 1:
        raise ParseError("no data rows after the header", line=header_line + 1)
    table = []
    for line, row in rows[1:]:
        if len(row) != len(names):
            raise ParseError(f"line {line}: expected {len(names)} cells, got {len(row)}",
                             line=line)
        table.append([_parse_cell(cell, line, name) for cell, name in zip(row, names)])
    table = np.array(table)
    if "weight" in names:
        w = table[:, names.index("weight")]
        if np.any(w <= 0):
            i = int(np.argmax(w <= 0))
            line = rows[i + 1][0]
            raise ParseError(f"line {line}: weight must be strictly positive, got {w[i]}",
                             line=line)
    return names, table


_NOT_SPACE = re.compile(r"\S")


def _read_table(text: str) -> tuple[list, np.ndarray] | None:
    """What :func:`_read_rows` returns for ``text``, parsed in one vectorized
    pass; ``None`` wherever that pass might differ, so that the line reader
    runs instead: at any fault, on a cell numpy does not parse but ``float``
    does (quoted, ``1_000``, non-ASCII digits), on a whitespace-only row, and
    on a line that might hold a cell beyond csv's field size limit."""
    stream = io.StringIO(text, newline="")
    try:
        names = next(row for row in map(_stripped, csv.reader(stream)) if any(row))
        _check_header(names, 0)
    except (StopIteration, csv.Error, ParseError):
        return None
    body = stream.tell()
    if not (_NOT_SPACE.search(text, body)  # no data rows: loadtxt would warn
            and _lines_within(text, body, csv.field_size_limit())):
        return None
    try:
        table = np.loadtxt(stream, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != len(names) or not np.isfinite(table).all():
        return None
    if "weight" in names and not np.all(table[:, names.index("weight")] > 0):
        return None
    return names, table


def _lines_within(text: str, start: int, limit: int) -> bool:
    """Whether every line of ``text[start:]``, split at ``\\n`` only, has at
    most ``limit`` characters; one ``rfind`` per ``limit`` characters."""
    while len(text) - start > limit:
        end = text.rfind("\n", start, start + limit + 1)
        if end < 0:
            return False
        start = end + 1
    return True


def _load_json(path):
    """The JSON data in a file; :class:`ParseError` if it cannot be decoded."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON: {exc}",
                             line=getattr(exc, "lineno", None)) from exc


@dataclass(frozen=True, eq=False)
class RunSpec:
    """Validated run description: one field per runspec/1 key (see the README),
    ``{"uniform": w}`` weights as ``w``.  ``==`` compares ``beta0`` by value."""

    model: AnalyticModel | ExternalEvaluatorSpec
    dataset: str | None = None
    beta0: np.ndarray | None = None
    bounds: tuple | None = None
    n_params: int | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    weights: str | float = "none"

    def __post_init__(self):
        check_fields(self, lambda s: [
            ("dataset", (s.dataset is None) == s.is_external,
             "an analytic model needs a dataset; an external one embeds its data"),
            ("n_params", s.n_params is None or s.n_params >= 1,
             "n_params must be a positive integer"),
            ("weights", s.weights in ("none", "column") if isinstance(s.weights, str)
             else s.weights > 0, "weights must be 'none', 'column' or {'uniform': w > 0}"),
            ("weights", s.weights != "column" or not s.is_external,
             "weights='column' requires a dataset"),
        ])

    @property
    def is_external(self) -> bool:
        return isinstance(self.model, ExternalEvaluatorSpec)

    __eq__ = _fields_equal


_RUNSPEC_KEYS = {f.name for f in dataclasses.fields(RunSpec)} | {"schema"}


def _known(raw, keys: set, key: str) -> dict:
    """The entries under ``keys`` of the JSON object ``raw`` at runspec/1 ``key``;
    any other entry only warns (forward compatibility)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be a JSON object", key=key)
    if set(raw) - keys:
        warnings.warn(f"ignoring unknown {key} keys: {sorted(set(raw) - keys)}")
    return {k: raw[k] for k in keys & set(raw)}


def _parse_model(raw) -> AnalyticModel | ExternalEvaluatorSpec:
    raw = _known(raw, _MODEL_ANALYTIC_KEYS | _MODEL_EXTERNAL_KEYS, "model")
    if raw.keys() & _MODEL_ANALYTIC_KEYS and raw.keys() & _MODEL_EXTERNAL_KEYS:
        raise ConfigError("model mixes analytic keys and an external command; "
                          "give exactly one", key="model")
    if raw.keys() & _MODEL_EXTERNAL_KEYS:
        return ExternalEvaluatorSpec(raw.pop("command", None), **raw)
    if not raw:
        raise ConfigError("model needs either a 'kind' or a 'command'", key="model")
    return make_model(raw.get("kind"), raw.get("degree"))


def load_runspec(path) -> RunSpec:
    """Read and validate a runspec/1 file.

    Unknown keys only warn (forward compatibility); invalid values raise
    :class:`ConfigError` naming the key.
    """
    raw = _known(_load_json(path), _RUNSPEC_KEYS, "runspec")
    if raw.get("schema", RUNSPEC_SCHEMA) != RUNSPEC_SCHEMA:
        raise ConfigError(f"unsupported run-spec schema {raw['schema']!r}", key="schema")
    if "model" not in raw:
        raise ConfigError("run spec needs a model", key="model")
    model = _parse_model(raw["model"])

    bounds = raw.get("bounds")
    if bounds is not None:
        if not isinstance(bounds, list) or not bounds or not all(
            isinstance(b, list) and len(b) == 2 for b in bounds
        ):
            raise ConfigError("bounds must be a non-empty array of [lower, upper] pairs",
                              key="bounds")
        bounds = tuple(tuple(check_type(b, (float, type(None)), "bounds") for b in pair)
                       for pair in bounds)

    weights = raw.get("weights", "none")
    if isinstance(weights, dict) and set(weights) == {"uniform"}:
        weights = check_type(weights["uniform"], (float,), "weights")
    elif not isinstance(weights, str):
        raise ConfigError(
            "weights must be 'none', 'column', or {'uniform': value}", key="weights"
        )
    solver = SolverConfig(**_known(raw.get("solver", {}), _SOLVER_KEYS, "solver"))
    return RunSpec(model=model, dataset=raw.get("dataset"), beta0=raw.get("beta0"),
                   bounds=bounds, n_params=raw.get("n_params"), solver=solver,
                   weights=weights)


@dataclass
class RunSetup:
    """Everything a fitting command needs, resolved from a RunSpec."""

    evaluate: Callable[[np.ndarray], np.ndarray]
    beta0: Parameters
    config: SolverConfig
    weights: np.ndarray | float | None

    def close(self):
        if isinstance(self.evaluate, ExternalEvaluator):
            self.evaluate.close()

    def __enter__(self) -> "RunSetup":
        if isinstance(self.evaluate, ExternalEvaluator):
            self.evaluate.start()  # the child boots while the caller loads the solver
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
        path = spec.dataset
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
    return RunSetup(DatasetEvaluator(spec.model, dataset), beta0, spec.solver, weights)


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


_NON_FINITE = ("Infinity", "-Infinity", "NaN")  # standard JSON has no such numbers


def _to_data(value):
    """A report field as JSON data; a non-finite float is one of ``_NON_FINITE``,
    but in an array, where it is an unbounded side of a box, null."""
    if dataclasses.is_dataclass(value):
        return {_REPORT_KEYS.get(f.name, f.name): _to_data(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, list):
        return [_to_data(v) for v in value]
    if isinstance(value, np.ndarray):
        return [v if math.isfinite(v) else None for v in value.tolist()]
    if isinstance(value, RunStatus):
        return value.value
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    return value


def _from_data(cls, raw: dict):
    """A ``cls`` from its report/1 object.  A missing key takes the field's
    default; one without a default, or a value that does not decode or fit the
    field's type (:func:`~broydenfit.errors.check_fields`), fails."""
    kwargs = {}
    types = dict(_field_types(cls))
    for f in dataclasses.fields(cls):
        key = _REPORT_KEYS.get(f.name, f.name)
        if key in raw:
            value = raw[key]
            if float in types[f.name] and value in _NON_FINITE:
                value = float(value)
            try:
                kwargs[f.name] = _DECODE.get(f.name, lambda v: v)(value)
            except (BroydenFitError, TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"invalid {key!r} of a {cls.__name__}: {exc}") from exc
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ParseError(f"report is missing {key!r} of a {cls.__name__}")
    record = cls(**kwargs)
    try:
        check_fields(record)
    except ConfigError as exc:
        key = _REPORT_KEYS.get(exc.key, exc.key)
        raise ParseError(f"invalid {key!r} of a {cls.__name__}: {exc}") from exc
    return record


# Fields whose report/1 value is not the field value itself.
_DECODE = {
    "status": RunStatus,
    "final_beta": lambda raw: _from_data(Parameters, raw),
    "iterations": lambda raw: [_from_data(IterationRecord, rec) for rec in raw],
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
            json.dump(report_to_dict(report), fh, indent=2, allow_nan=False)
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
    """Load a report/1 JSON file back into a :class:`RunReport` (or raise
    :class:`ParseError`)."""
    return report_from_dict(_load_json(path))
