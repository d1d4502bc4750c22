"""The package's public names, and the names the benchmark reads."""

import functools
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import broydenfit

ROOT = Path(__file__).resolve().parent.parent


def documented_api() -> set[str]:
    """The backticked names of the README's "Public API:" paragraph."""
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Public API:", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`(\w+)`", paragraph))


def test_all_is_the_documented_api():
    assert sorted(broydenfit.__all__) == sorted(documented_api())


def test_package_exports_nothing_else():
    # Through dir(): the solver's entry points are loaded on first access.
    public = {name for name in dir(broydenfit) if not name.startswith("_")
              and not inspect.ismodule(getattr(broydenfit, name))}
    assert public == set(broydenfit.__all__)


def _span_targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for _, module, attr, _ in spans.TARGETS]


# Read by bench/workloads.py (as ``bf.<name>``) and bench/run.py.
BENCH_NAMES = [
    ("broydenfit", "Dataset"),
    ("broydenfit", "DatasetEvaluator"),
    ("broydenfit", "Parameters"),
    ("broydenfit", "SolverConfig"),
    ("broydenfit", "make_model"),
    ("broydenfit.cli", "STATUS_EXIT"),
    ("broydenfit.core", "optimize"),
    ("broydenfit.dataio", "read_report"),
    ("broydenfit.external", "ExternalEvaluator.__call__"),
    ("broydenfit.external", "ExternalEvaluator.close"),
]

# The tracer still lists these names, gone from the package; it reports them
# as absent.  ``lm_step`` was an alias of linalg.solve.  ``cli`` no longer
# binds ``optimize`` at import: ``cmd_fit`` imports it from ``core`` when it
# runs, so the ``core.optimize`` span covers command-line fits from there.
KNOWN_ABSENT = {("broydenfit.core", "lm_step"), ("broydenfit.cli", "optimize")}


@pytest.mark.parametrize(
    "module, attr",
    sorted(set(BENCH_NAMES + _span_targets()) - KNOWN_ABSENT),
    ids=lambda value: value,
)
def test_names_the_benchmark_reads_resolve(module, attr):
    assert functools.reduce(getattr, attr.split("."), importlib.import_module(module))
