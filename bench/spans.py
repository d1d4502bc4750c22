"""Spans around calls into broydenfit, recorded from the benchmark's side.

The tracer wraps public functions of the package by module attribute while
it is installed (``with tracer.installed(): ...``) and restores them on
exit, so untraced fits in the same process run the unmodified code.  A
target whose name no longer exists is reported as absent instead of
failing; time spent in it then shows up in its parent's self time.

Each span records its name, start, end, parent span and fit id.  Spans are
held in flat arrays in memory and summarised (and optionally written) when
the run ends.  Self time is a span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter


def _length_plus_newline(result, args):
    return len(result) + 1


def _first_arg_length(result, args):
    return len(args[0])


def _truth(result, args):
    return int(bool(result))


# (span name, module, attribute path, value recorded per span or None).
# A name listed twice is one layer reachable through two bindings (the CLI
# imports ``optimize`` by name).
TARGETS = (
    ("cli.main", "broydenfit.cli", "main", None),
    ("dataio.load_runspec", "broydenfit.dataio", "load_runspec", None),
    ("dataio.prepare_run", "broydenfit.dataio", "prepare_run", None),
    ("dataio.write_report", "broydenfit.dataio", "write_report", None),
    ("core.optimize", "broydenfit.core", "optimize", None),
    ("core.optimize", "broydenfit.cli", "optimize", None),
    ("core.Parameters", "broydenfit.core", "Parameters.__init__", None),
    ("core.constrain_step", "broydenfit.core", "constrain_step", None),
    ("core.broyden_update", "broydenfit.core", "broyden_update", None),
    ("core.assemble_lm_system", "broydenfit.core", "assemble_lm_system", None),
    ("core.lm_step", "broydenfit.core", "lm_step", None),
    ("core.backtrack", "broydenfit.core", "backtrack", None),
    ("core.armijo_holds", "broydenfit.core", "armijo_holds", _truth),
    ("linalg.solve", "broydenfit.linalg", "solve", None),
    ("fdiff.fd_jacobian", "broydenfit.fdiff", "fd_jacobian", None),
    ("models.eval", "broydenfit.models", "residuals_from_dataset", None),
    ("external.call", "broydenfit.external", "ExternalEvaluator.__call__", None),
    ("external.encode_request", "broydenfit.external", "encode_request",
     _length_plus_newline),
    ("external.decode_response", "broydenfit.external", "_decode_response",
     _first_arg_length),
    ("external.close", "broydenfit.external", "ExternalEvaluator.close", None),
)

# Spans that time the residual callable from outside: the benchmark's own
# wrapper for in-process fits, the evaluator object for external ones.
EVALUATOR_SPANS = ("evaluator", "external.call")
ROOT = "fit"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.fit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.value = array("q")
        self._stack: list[int] = []
        self.fit_id = -1
        self.absent: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.fit.append(self.fit_id)
        self.raised.append(0)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, end: float) -> None:
        self.end[idx] = end
        self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, perf_counter())
                self.raised[idx] = 1
                raise
            self._close(idx, perf_counter())
            if measure is not None:
                self.value[idx] = measure(result, args)
            return result

        return traced

    @contextmanager
    def fit_span(self, fit_id: int):
        """Root span of one fit; every span opened inside carries ``fit_id``."""
        self.fit_id = fit_id
        idx = self._open(self._name_id(ROOT))
        try:
            yield
        finally:
            self._close(idx, perf_counter())
            self.fit_id = -1

    @contextmanager
    def installed(self):
        """Replace every present target by its traced wrapper, then restore."""
        saved = []
        try:
            for name, module, path, measure in TARGETS:
                owner, attr = _resolve(module, path)
                if owner is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, measure))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, raised, value sum,
        plus the evaluator calls made directly under each span name."""
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_s = dur - child
        raised = np.frombuffer(self.raised, dtype=np.int8)
        value = np.frombuffer(self.value, dtype=np.int64)
        k = len(self.names)
        eval_ids = [self._ids[n] for n in EVALUATOR_SPANS if n in self._ids]
        is_eval = np.isin(nid, eval_ids) & has_parent
        evals_under = np.bincount(nid[parent[is_eval]], minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
                "raised": int(raised[sel].sum()),
                "value": int(value[sel].sum()),
                "evaluator_children": int(evals_under[i]),
            }
        return out

    def first_call_seconds(self, name: str) -> list[float]:
        """Duration of the first ``name`` span of each fit."""
        if name not in self._ids:
            return []
        i = self._ids[name]
        seen: dict[int, float] = {}
        for idx in range(len(self.start)):
            if self.name_id[idx] == i and self.fit[idx] not in seen:
                seen[self.fit[idx]] = self.end[idx] - self.start[idx]
        return list(seen.values())

    def save(self, path: str, max_spans: int) -> int:
        """Write the first ``max_spans`` spans as a compressed ``.npz``."""
        import numpy as np

        n = min(max_spans, len(self.start))
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            fit=np.frombuffer(self.fit, dtype=np.int32)[:n],
            start=np.frombuffer(self.start)[:n],
            end=np.frombuffer(self.end)[:n],
            raised=np.frombuffer(self.raised, dtype=np.int8)[:n],
            value=np.frombuffer(self.value, dtype=np.int64)[:n],
        )
        return n


def _resolve(module: str, path: str):
    """(owner, attribute) for ``module.path``; (None, None) when missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr
