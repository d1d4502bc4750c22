"""Child-process residual evaluators (wire protocol version 1).

A fitting run may delegate residual evaluation to an external program, e.g.
a wrapper around closed-source simulation software.  The child is spawned
once per run and kept alive across iterations; each evaluation is one
newline-delimited JSON exchange on its standard input/output:

    request:  {"v": 1, "id": <int>, "params": [<real> ...]}
    response: {"v": 1, "id": <int>, "residuals": [<real> ...]}
           or {"v": 1, "id": <int>, "error": "<message>"}

The id must echo the request; any other standard-output line is a protocol
violation.  Reals carry full round-trip precision, so an in-process model
served through this channel reproduces bit-identical residuals.  The
child's standard error is passed through for logging.
"""

from __future__ import annotations

import json
import math
import queue
import subprocess
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EvaluatorFailure, check_residuals

PROTOCOL_VERSION = 1

# How long close() waits for the reader thread to see the exited child's EOF.
READER_JOIN_SECONDS = 1.0


@dataclass(frozen=True)
class ExternalEvaluatorSpec:
    """How to launch and talk to an external evaluator process."""

    command: tuple[str, ...]
    working_dir: str | None = None
    timeout: float = 3600.0

    def __post_init__(self):
        object.__setattr__(self, "command", tuple(self.command))
        if not self.command:
            raise ConfigError("external evaluator command must be non-empty",
                              key="command")
        if not self.timeout > 0:
            raise ConfigError("timeout must be positive", key="timeout")


def encode_request(req_id: int, params) -> str:
    return json.dumps(
        {"v": PROTOCOL_VERSION, "id": req_id, "params": [float(p) for p in params]}
    )


def encode_response(req_id: int, residuals=None, error: str | None = None) -> str:
    body: dict = {"v": PROTOCOL_VERSION, "id": req_id}
    if error is not None:
        body["error"] = error
    else:
        body["residuals"] = [float(r) for r in residuals]
    return json.dumps(body)


def _decode_response(line: str, expect_id: int) -> np.ndarray:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EvaluatorFailure(
            f"response is not valid JSON: {line!r}", category="malformed_response"
        ) from exc
    if not isinstance(obj, dict) or obj.get("v") != PROTOCOL_VERSION:
        raise EvaluatorFailure(
            f"response missing protocol version 1: {line!r}",
            category="malformed_response",
        )
    if obj.get("id") != expect_id:
        raise EvaluatorFailure(
            f"response id {obj.get('id')!r} does not echo request id {expect_id}",
            category="malformed_response",
        )
    if "error" in obj:
        raise EvaluatorFailure(f"evaluator error: {obj['error']}", category="evaluation")
    residuals = obj.get("residuals")
    if not isinstance(residuals, list) or not all(
        isinstance(r, (int, float)) and not isinstance(r, bool) for r in residuals
    ):
        raise EvaluatorFailure(
            f"response carries no residual list: {line!r}",
            category="malformed_response",
        )
    return np.asarray(residuals, dtype=float)


class ExternalEvaluator:
    """Residual evaluator backed by one long-lived child process.

    The process is spawned lazily on the first call and owned exclusively by
    this instance; close() (or use as a context manager) terminates it.
    Once a call has failed hard (death, timeout), subsequent calls fail
    immediately rather than respawning: mid-run restarts would silently
    discard whatever state the evaluator had built up.
    """

    def __init__(self, spec: ExternalEvaluatorSpec):
        self.spec = spec
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self._lines: queue.Queue = queue.Queue()
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
        except OSError as exc:
            self._dead = f"could not start {self.spec.command[0]!r}: {exc}"
            raise EvaluatorFailure(self._dead, category="spawn") from exc
        # Reader thread decouples blocking pipe reads from the timeout logic.
        self._reader = threading.Thread(target=self._pump, args=(self._proc.stdout,),
                                        daemon=True)
        self._reader.start()

    def _pump(self, stream):
        # The reader owns the stream and closes it at end of file: closing it
        # from another thread would block behind a pending read.
        with stream:
            for line in stream:
                self._lines.put(line)
        self._lines.put(None)

    def _fail(self, message: str, category: str):
        self._dead = message
        self.close(grace=0.0)
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
            self._fail("evaluator process closed its input pipe",
                       category="process_died")
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
        drain and close the child's output.
        """
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
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
    :class:`EvaluatorFailure`; failures, and any other exception the model
    raises, become error responses (the latter with a traceback on standard
    error) and serving continues.  Malformed request lines get an error
    response echoing the id when one can be parsed, -1 otherwise.
    """
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        req_id = -1
        try:
            obj = json.loads(line)
            if (isinstance(obj, dict) and isinstance(obj.get("id"), int)
                    and not isinstance(obj.get("id"), bool)):
                req_id = obj["id"]
            if not isinstance(obj, dict) or obj.get("v") != PROTOCOL_VERSION:
                raise ValueError("missing protocol version 1")
            params = obj.get("params")
            if not isinstance(params, list) or not all(
                isinstance(p, (int, float)) and not isinstance(p, bool)
                and math.isfinite(p)
                for p in params
            ):
                raise ValueError("params must be a list of finite numbers")
        except (json.JSONDecodeError, ValueError) as exc:
            stdout.write(encode_response(req_id, error=f"bad request: {exc}") + "\n")
            stdout.flush()
            continue
        try:
            residuals = evaluate(np.asarray(params, dtype=float))
            reply = encode_response(req_id, residuals=residuals)
        except (EvaluatorFailure, ConfigError) as exc:
            reply = encode_response(req_id, error=str(exc))
        except Exception as exc:  # a model bug must not end the session
            traceback.print_exc()
            reply = encode_response(req_id, error=f"{type(exc).__name__}: {exc}")
        stdout.write(reply + "\n")
        stdout.flush()
