"""Child-process residual evaluators (wire protocol version 1).

A fitting run may delegate residual evaluation to an external program, e.g.
a wrapper around closed-source simulation software.  The child is spawned
once per run and kept alive across iterations; each evaluation is one
newline-delimited JSON exchange on its standard input/output:

    request:  {"v": 1, "id": <int>, "params": [<real> ...], "binary": true}
    response: {"v": 1, "id": <int>, "residuals": [<real> ...]}
           or {"v": 1, "id": <int>, "residuals_b64": "<base64>"}
           or {"v": 1, "id": <int>, "error": "<message>"}

The id must echo the request; any other standard-output line is a protocol
violation.  ``"binary": true`` offers the child the ``residuals_b64`` form:
base64 of the residuals as little-endian float64, a non-empty whole number
of 8-byte values.  A child may answer in either form (exactly one per
response), and must ignore request keys it does not know, so children that
send lists keep working.  Reals carry full round-trip precision in both
forms, so an in-process model served through this channel reproduces
bit-identical residuals.  The child's standard error is passed through for
logging.
"""

from __future__ import annotations

import base64
import contextlib
import json
import queue
import subprocess
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EvaluatorFailure, check_fields, check_residuals, check_type

PROTOCOL_VERSION = 1

# How long close() waits for the reader thread to see the exited child's EOF.
READER_JOIN_SECONDS = 1.0

# How much of a malformed response line, or of a child's error, a message quotes.
ECHO_CHARS = 200


@dataclass(frozen=True)
class ExternalEvaluatorSpec:
    """How to launch and talk to an external evaluator process."""

    command: tuple[str, ...]
    working_dir: str | None = None
    timeout: float = 3600.0

    def __post_init__(self):
        check_fields(self, lambda c: [
            ("command", bool(c.command), "external evaluator command must be non-empty"),
            ("timeout", 0 < c.timeout <= threading.TIMEOUT_MAX,
             f"timeout must be in (0, {threading.TIMEOUT_MAX:g}] s"),
        ])


def encode_request(req_id: int, params) -> str:
    return json.dumps({"v": PROTOCOL_VERSION, "id": req_id,
                       "params": [float(p) for p in params], "binary": True})


def encode_response(req_id: int, residuals=None, error: str | None = None,
                    binary: bool = False) -> str:
    body: dict = {"v": PROTOCOL_VERSION, "id": req_id}
    if error is not None:
        body["error"] = error
    elif binary:
        r = np.asarray(residuals, dtype="<f8")
        if r.ndim != 1:
            raise TypeError(f"residuals must be a vector, got shape {r.shape}")
        body["residuals_b64"] = base64.b64encode(r.tobytes()).decode("ascii")
    else:
        body["residuals"] = [float(r) for r in residuals]
    return json.dumps(body)


def _quote(text: str) -> str:
    # Only the head of the text: a response can run to megabytes.
    more = "..." if len(text) > ECHO_CHARS else ""
    return f"{text[:ECHO_CHARS]!r}{more} ({len(text)} characters)"


def _malformed(message: str, line: str) -> EvaluatorFailure:
    return EvaluatorFailure(f"{message}: {_quote(line)}", category="malformed_response")


def _is_int(value, expected: int) -> bool:
    """``value == expected`` for a JSON integer only: ``True == 1 == 1.0`` in Python."""
    return type(value) is int and value == expected


def _decode_response(line: str, expect_id: int) -> np.ndarray:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # too deep, too many digits
        raise _malformed("response is not valid JSON", line) from exc
    if not isinstance(obj, dict) or not _is_int(obj.get("v"), PROTOCOL_VERSION):
        raise _malformed("response missing protocol version 1", line)
    if not _is_int(obj.get("id"), expect_id):
        raise _malformed(f"response id does not echo request id {expect_id}", line)
    if "error" in obj:
        error = obj["error"]
        error = error if isinstance(error, str) else json.dumps(error)
        raise EvaluatorFailure(  # in full when short
            f"evaluator error: {error if len(error) <= ECHO_CHARS else _quote(error)}",
            category="evaluation")
    if ("residuals" in obj) == ("residuals_b64" in obj):
        raise _malformed("response needs exactly one of residuals, residuals_b64",
                         line)
    if "residuals_b64" in obj:
        try:
            raw = base64.b64decode(obj["residuals_b64"], validate=True)
        except (TypeError, ValueError):  # not a str, or not base64
            raw = b""
        if not raw or len(raw) % 8:
            raise _malformed("residuals_b64 is not base64 of float64 values", line)
        return np.frombuffer(raw, dtype="<f8").astype(float)
    with contextlib.suppress(ConfigError):
        residuals = check_type(obj["residuals"], (np.ndarray,), "residuals")
        if residuals.ndim == 1:
            return residuals
    raise _malformed("response carries no residual list", line)


def _pump(stream, lines: queue.Queue):
    """Put each line of ``stream`` on ``lines``, then None.  The reader closes the
    stream at end of file: another thread's close would block behind a read."""
    with stream:
        for line in stream:
            lines.put(line)
    lines.put(None)


class ExternalEvaluator:
    """Residual evaluator backed by one long-lived child process.

    The process is spawned by start(), or lazily on the first call, and owned
    exclusively by this instance; close() (or use as a context manager)
    terminates it, and the next start() or call after close() spawns a fresh
    child.  Once a call has failed hard (death, timeout), subsequent calls
    fail immediately rather than respawning, until close(): mid-run restarts
    would silently discard whatever state the evaluator had built up.
    """

    def __init__(self, spec: ExternalEvaluatorSpec):
        self.spec = spec
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self._lines: queue.Queue | None = None
        self._next_id = 0
        self._m: int | None = None
        self._dead: str | None = None

    def _spawn(self):
        try:
            self._proc = subprocess.Popen(
                list(self.spec.command),
                cwd=self.spec.working_dir,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=None,
                text=True,
            )
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in an argument
            self._dead = f"could not start {self.spec.command[0]!r}: {exc}"
            raise EvaluatorFailure(self._dead, category="spawn") from exc
        # Reader thread decouples blocking pipe reads from the timeout logic.
        # A queue per child: an earlier child's end-of-file None is not this one's.
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=_pump, daemon=True,
                                        args=(self._proc.stdout, self._lines))
        self._reader.start()

    def start(self):
        """Spawn the child now, so it boots while the caller does other work.

        Does nothing when a child is running or a hard failure is recorded.
        Never raises: a failed spawn leaves the evaluator unspawned, and the
        first call retries it and raises the failure.
        """
        if self._proc is None and self._dead is None:
            try:
                self._spawn()
            except EvaluatorFailure:
                self._dead = None  # the first call retries the spawn and raises

    def _fail(self, message: str, category: str):
        self.close(grace=0.0)
        self._dead = message
        raise EvaluatorFailure(message, category=category)

    def __call__(self, beta) -> np.ndarray:
        if self._dead is not None:
            raise EvaluatorFailure(
                f"evaluator unavailable after earlier failure: {self._dead}",
                category="process_died",
            )
        if self._proc is None:
            self._spawn()
        req_id = self._next_id
        self._next_id += 1
        try:
            self._proc.stdin.write(encode_request(req_id, beta) + "\n")
            self._proc.stdin.flush()
        except OSError:
            if self._proc.poll() is None:
                self._fail("evaluator process closed its input pipe",
                           category="process_died")
            line = None  # it exited unread: the same report as unanswered
        else:
            try:
                line = self._lines.get(timeout=self.spec.timeout)
            except queue.Empty:
                self._fail(
                    f"no response within {self.spec.timeout} s", category="timeout"
                )
        if line is None:
            self._fail("evaluator process exited before responding",
                       category="process_died")
        residuals = _decode_response(line, req_id)
        self._m = check_residuals(residuals, self._m)
        return residuals

    def close(self, grace: float = 2.0):
        """Close the child's input; kill it if it is still up after ``grace`` s.

        Then wait (at most ``READER_JOIN_SECONDS``) for the reader thread to
        drain and close the child's output.  A recorded hard failure is
        cleared, so the next start() or call spawns a fresh child.
        """
        self._dead = None
        proc, self._proc = self._proc, None
        if proc is None:
            return
        with contextlib.suppress(OSError):
            proc.stdin.close()
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        self._reader.join(timeout=READER_JOIN_SECONDS)

    def __enter__(self) -> "ExternalEvaluator":
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        self.close()


def serve(evaluate, stdin, stdout) -> None:
    """Answer protocol requests until standard input closes.

    ``evaluate`` maps a parameter array to residuals or raises
    :class:`EvaluatorFailure`.  Each reply is checked here
    (:func:`~broydenfit.errors.check_residuals`), as nothing else checks a
    served model: a non-finite residual becomes an error response naming
    its index.  Failures, and any other exception the model raises, become
    error responses (the latter with a traceback on standard error) and
    serving continues.  Malformed request lines get an error
    response echoing the id when one can be parsed, -1 otherwise.  A
    request with ``"binary": true`` gets its residuals as ``residuals_b64``.
    """
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        req_id, binary = -1, False
        try:
            obj = json.loads(line)
            if isinstance(obj, dict) and type(obj.get("id")) is int:  # not a bool
                req_id = obj["id"]
            if not isinstance(obj, dict) or not _is_int(obj.get("v"), PROTOCOL_VERSION):
                raise ValueError("missing protocol version 1")
            params = check_type(obj.get("params"), (np.ndarray,), "params")
            if params.ndim != 1 or not np.isfinite(params).all():
                raise ValueError("params must be a list of finite numbers")
            binary = obj.get("binary") is True
        except (ConfigError, ValueError, RecursionError) as exc:
            stdout.write(encode_response(req_id, error=f"bad request: {exc}") + "\n")
            stdout.flush()
            continue
        try:
            residuals = np.asarray(evaluate(params), dtype=float)
            check_residuals(residuals, None)
            reply = encode_response(req_id, residuals=residuals, binary=binary)
        except (EvaluatorFailure, ConfigError) as exc:
            reply = encode_response(req_id, error=str(exc))
        except Exception as exc:  # a model bug must not end the session
            traceback.print_exc()
            reply = encode_response(req_id, error=f"{type(exc).__name__}: {exc}")
        stdout.write(reply + "\n")
        stdout.flush()
