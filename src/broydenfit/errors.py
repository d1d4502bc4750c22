"""Exception types shared across the package, the residual contract, and
the field contract of the configuration records: types, then value rules."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import numbers
import reprlib
import typing
from types import UnionType

import numpy as np


class BroydenFitError(Exception):
    """Base class for all package errors."""


class ConfigError(BroydenFitError):
    """A configuration value is invalid or inconsistent.

    ``key`` names the offending field when one can be identified.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ParseError(BroydenFitError):
    """A data file could not be parsed; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class EvaluatorFailure(BroydenFitError):
    """A residual evaluation could not be completed.

    ``category`` is a stable machine-readable tag:

    ==================  =====================================================
    ``spawn``           external process could not be started
    ``process_died``    external process exited before responding
    ``timeout``         external process did not respond within the deadline
    ``malformed_response``  response line violated the wire protocol
    ``length_changed``  residual count differed from the first evaluation
    ``non_finite``      a residual entry was NaN or infinite
    ``evaluation``      the model reported it cannot evaluate at this point
    ==================  =====================================================
    """

    def __init__(self, message: str, category: str = "evaluation"):
        super().__init__(message)
        self.category = category


def check_residuals(r: np.ndarray, m: int | None) -> int:
    """Check one residual vector from a model and return its length.

    ``r`` must be 1-D and non-empty, have the length ``m`` of the first
    response (``None`` before it), and hold only finite entries; otherwise
    :class:`EvaluatorFailure` is raised with the category named in its table.
    """
    if r.ndim != 1 or r.size == 0:
        raise EvaluatorFailure(
            f"evaluator must return a 1-D residual vector, got shape {r.shape}",
            category="evaluation",
        )
    if m is not None and r.size != m:
        raise EvaluatorFailure(
            f"residual length changed from {m} to {r.size}", category="length_changed"
        )
    if not np.isfinite(r).all():
        bad = int(np.flatnonzero(~np.isfinite(r))[0])
        raise EvaluatorFailure(f"non-finite residual at index {bad}", category="non_finite")
    return r.size


_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "a boolean",
          tuple[str, ...]: "a list of strings", type(None): "null",
          np.ndarray: "an array of numbers"}


def check_type(value, types: tuple, key: str):
    """``value`` as stored in a field of one of ``types``: an int becomes a float
    in a ``float`` field, a list a tuple in a ``tuple[X, ...]`` one, and an
    array, list or tuple of real numbers a float64 array in an ``np.ndarray``
    one.  A bool, a string or None is not a number, and a string is not a list
    of strings; a value that fits no type raises :class:`ConfigError` naming ``key``."""
    if type(value) in types and (type(value) is not np.ndarray or value.dtype == float):
        return value  # the common case, and the fast one
    for option in types:
        if option is np.ndarray:
            array = value
            if isinstance(value, (list, tuple)):  # check the elements before numpy converts
                with contextlib.suppress(ValueError):  # ragged, with arrays among them
                    array = np.array(value, dtype=object)
            if isinstance(array, np.ndarray) and (array.dtype.kind in "fiu" or (
                    array.dtype.kind == "O" and all(
                        issubclass(t, numbers.Real) and not issubclass(t, bool)
                        for t in set(map(type, array.ravel()))))):
                with contextlib.suppress(OverflowError):  # an int beyond float range
                    return array.astype(float)
        elif option in (int, float):
            abc = numbers.Integral if option is int else numbers.Real
            if isinstance(value, abc) and not isinstance(value, bool):
                with contextlib.suppress(OverflowError):  # an int beyond float range
                    return option(value)
        elif typing.get_origin(option) is None:
            if isinstance(value, option):
                return value
        elif isinstance(value, (list, tuple)) and all(  # list[X] or tuple[X, ...]
                isinstance(v, typing.get_args(option)[0]) for v in value):
            return typing.get_origin(option)(value)
    names = " or ".join(_NAMES.get(option) or option.__name__ for option in types)
    raise ConfigError(f"{key} must be {names}, got {reprlib.repr(value)}", key=key)


@functools.cache
def _field_types(cls) -> list[tuple[str, tuple]]:
    """The name and the types (a union's members) of each dataclass field of ``cls``."""
    types = {name: typing.get_args(hint) if isinstance(hint, UnionType) else (hint,)
             for name, hint in typing.get_type_hints(cls).items()}
    return [(f.name, types[f.name]) for f in dataclasses.fields(cls)]


def check_fields(record, rules=None) -> None:
    """Check each field of the dataclass ``record`` against its annotation
    with :func:`check_type`, keyed by the field's name, and store the value
    as checked.  Then build the value rules ``rules(record)``, each ``(key, ok)``
    or ``(key, ok, message)``: the first false ``ok`` raises :class:`ConfigError`
    naming ``key``, with ``message`` or one quoting the field's value."""
    for name, types in _field_types(type(record)):
        value = getattr(record, name)
        stored = check_type(value, types, name)
        if stored is not value:
            object.__setattr__(record, name, stored)
    for key, ok, *message in rules(record) if rules else ():
        if not ok:
            default = f"invalid value for {key}: {getattr(record, key)!r}"
            raise ConfigError(message[0] if message else default, key=key)


class SingularSystem(BroydenFitError):
    """The linear system is singular or numerically rank deficient."""


class StagnantStep(BroydenFitError):
    """A secant update was requested with an (essentially) zero step."""
