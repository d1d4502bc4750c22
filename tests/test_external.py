import base64
import gc
import io
import json
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from broydenfit import (
    ConfigError,
    Dataset,
    DatasetEvaluator,
    EvaluatorFailure,
    ExternalEvaluator,
    ExponentialDecayModel,
    ExternalEvaluatorSpec,
    LinearModel,
    RunStatus,
    optimize,
)
from broydenfit.core import _CountingEvaluator
from broydenfit.external import _decode_response, encode_request, encode_response, serve
from broydenfit.fdiff import fd_jacobian

from conftest import json_values

ECHO_CHILD = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"v": 1, "id": req["id"], "residuals": req["params"]}), flush=True)
"""

# residuals params - 3, so a fit converges at all 3 in a few calls
SHIFT_CHILD = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    r = [p - 3.0 for p in req["params"]]
    print(json.dumps({"v": 1, "id": req["id"], "residuals": r}), flush=True)
"""

DIE_CHILD = "import sys; sys.exit(3)"

# Answers its first request with [1.0], then exits on the second.
DIE_ON_SECOND_CHILD = """
import json, sys
req = json.loads(sys.stdin.readline())
print(json.dumps({"v": 1, "id": req["id"], "residuals": [1.0]}), flush=True)
sys.stdin.readline()
"""

SLEEP_CHILD = """
import sys, time
sys.stdin.readline()
time.sleep(60)
"""

GARBAGE_CHILD = """
import sys
sys.stdin.readline()
print("this is not a protocol line", flush=True)
"""

LENGTH_CHANGE_CHILD = """
import json, sys
n = 3
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"v": 1, "id": req["id"], "residuals": [0.0] * n}), flush=True)
    n = 2
"""

WRONG_ID_CHILD = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"v": 1, "id": req["id"] + 1, "residuals": [0.0]}), flush=True)
"""

INF_CHILD = """
import sys
for line in sys.stdin:
    print('{"v": 1, "id": 0, "residuals": [1e999, 2.0]}', flush=True)
"""

ERROR_CHILD = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"v": 1, "id": req["id"], "error": "cannot evaluate"}), flush=True)
"""


SCRIPTED_CHILD = """
import json, sys
for line, residuals in zip(sys.stdin, json.loads(sys.argv[1])):
    req = json.loads(line)
    print(json.dumps({"v": 1, "id": req["id"], "residuals": residuals}), flush=True)
"""


BINARY_SCRIPTED_CHILD = """
import base64, json, struct, sys
for line, residuals in zip(sys.stdin, json.loads(sys.argv[1])):
    req = json.loads(line)
    payload = struct.pack(f"<{len(residuals)}d", *residuals)
    print(json.dumps({"v": 1, "id": req["id"],
                      "residuals_b64": base64.b64encode(payload).decode()}),
          flush=True)
"""


def child(script: str, timeout: float = 10.0, *args: str) -> ExternalEvaluatorSpec:
    return ExternalEvaluatorSpec(command=(sys.executable, "-c", script, *args),
                                 timeout=timeout)


def test_echo_child_returns_parameters():
    with ExternalEvaluator(child(ECHO_CHILD)) as ev:
        r = ev(np.array([1.0, 2.0]))
        assert np.array_equal(r, [1.0, 2.0])
        # Values survive the text round trip bit for bit.
        tricky = np.array([0.1 + 0.2, 1.0 / 3.0])
        assert np.array_equal(ev(tricky), tricky)


def test_child_death_is_categorized():
    with ExternalEvaluator(child(DIE_CHILD)) as ev:
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "process_died"
        # Subsequent calls fail fast instead of respawning.
        with pytest.raises(EvaluatorFailure):
            ev(np.array([1.0]))


def test_timeout_is_categorized():
    with ExternalEvaluator(child(SLEEP_CHILD, timeout=0.3)) as ev:
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "timeout"


def test_timed_out_child_is_killed_at_once():
    # Only a normal close() waits for the child to exit; a timeout kills it.
    with ExternalEvaluator(child(SLEEP_CHILD, timeout=0.3)) as ev:
        start = time.perf_counter()
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        elapsed = time.perf_counter() - start
        assert err.value.category == "timeout"
    assert elapsed < 1.0


def assert_closed(proc):
    """The child is reaped, and both its pipes are closed."""
    assert proc.returncode is not None and proc.stdin.closed and proc.stdout.closed


@pytest.mark.parametrize("script, timeout, fails", [
    (ECHO_CHILD, 10.0, False),
    (SLEEP_CHILD, 0.3, True),
], ids=["normal", "after_timeout"])
def test_close_leaves_no_pipe_open(script, timeout, fails):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        ev = ExternalEvaluator(child(script, timeout))
        ev.start()
        proc = ev._proc
        if fails:
            with pytest.raises(EvaluatorFailure):
                ev(np.array([1.0]))
        else:
            ev(np.array([1.0]))
        ev.close()
        assert_closed(proc)
        del ev, proc
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_each_with_block_starts_a_fresh_child():
    # The first child's end of file must not become the second child's reply.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        ev, reports = ExternalEvaluator(child(SHIFT_CHILD)), []
        for _ in range(2):
            with ev:
                reports.append(optimize(ev, [1.0, 2.0]))
        del ev
        gc.collect()
    assert reports[0].status is RunStatus.Converged
    assert reports[1] == reports[0]
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_a_new_with_block_starts_a_child_after_a_hard_failure():
    ev = ExternalEvaluator(child(DIE_ON_SECOND_CHILD))
    with ev:
        assert np.array_equal(ev(np.array([1.0])), [1.0])
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "process_died"
        assert str(err.value) == "evaluator process exited before responding"
        with pytest.raises(EvaluatorFailure, match="unavailable after earlier failure"):
            ev(np.array([1.0]))
    with ev:
        assert np.array_equal(ev(np.array([1.0])), [1.0])


def test_start_twice_spawns_one_child():
    with ExternalEvaluator(child(ECHO_CHILD)) as ev:
        spawns, spawn = [], ev._spawn
        ev._spawn = lambda: spawns.append(spawn())
        ev.start()
        ev.start()
        assert np.array_equal(ev(np.array([2.0])), [2.0])
        assert len(spawns) == 1


def test_start_then_close_leaves_no_pipe_open():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        ev = ExternalEvaluator(child(ECHO_CHILD))
        ev.start()
        proc = ev._proc
        ev.close()
        assert ev._proc is None
        assert_closed(proc)
        del ev, proc
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_start_after_close_spawns_a_fresh_child():
    with ExternalEvaluator(child(ECHO_CHILD)) as ev:
        ev.start()
        first = ev._proc
        ev.close()
        ev.start()
        assert ev._proc is not None and ev._proc.pid != first.pid
        assert np.array_equal(ev(np.array([5.0])), [5.0])


def test_start_leaves_a_failed_spawn_to_the_first_call():
    spec = ExternalEvaluatorSpec(command=("/no/such/binary-here",), timeout=1.0)
    with pytest.raises(EvaluatorFailure) as lazy:
        ExternalEvaluator(spec)(np.array([1.0]))
    ev = ExternalEvaluator(spec)
    ev.start()  # does not raise
    assert ev._proc is None
    with pytest.raises(EvaluatorFailure) as err:
        ev(np.array([1.0]))
    assert err.value.category == "spawn"
    assert str(err.value) == str(lazy.value)
    assert str(err.value).startswith("could not start '/no/such/binary-here': ")


def test_a_failed_spawn_is_tried_again_by_the_next_call():
    # No child ran, so nothing died: each call tries the spawn and reports it.
    ev = ExternalEvaluator(ExternalEvaluatorSpec(command=("/no/such/binary-here",)))
    for _ in range(2):
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "spawn"
        assert str(err.value).startswith("could not start '/no/such/binary-here': ")


def test_a_spawn_that_fails_once_succeeds_on_the_next_call(tmp_path):
    # The working directory does not exist until after the first call.
    workdir = tmp_path / "later"
    spec = ExternalEvaluatorSpec((sys.executable, "-c", ECHO_CHILD), str(workdir), 10.0)
    with ExternalEvaluator(spec) as ev:
        ev.start()  # fails, and leaves nothing recorded
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "spawn"
        workdir.mkdir()
        assert np.array_equal(ev(np.array([2.0])), [2.0])


# Closes its standard input and says so, then stays up: a request write
# fails while the child still runs.
CLOSED_INPUT_CHILD = """
import os, sys, time
os.close(0)
open(sys.argv[1], "w").close()
time.sleep(60)
"""


def test_a_child_that_closed_its_input_is_killed(tmp_path):
    flag = tmp_path / "closed"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        ev = ExternalEvaluator(child(CLOSED_INPUT_CHILD, 10.0, str(flag)))
        ev.start()
        deadline = time.monotonic() + 30
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        proc = ev._proc
        assert flag.exists() and proc.poll() is None
        start = time.perf_counter()
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        elapsed = time.perf_counter() - start
        assert err.value.category == "process_died"
        assert str(err.value) == "evaluator process closed its input pipe"
        assert proc.returncode is not None and elapsed < 1.0
        ev.close()
        del ev, proc
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def test_a_child_that_exited_before_the_first_request_died():
    # Its input pipe is closed by then, yet the reason is the one a child
    # that exits after reading the request gets.
    with ExternalEvaluator(child("import sys; sys.exit(1)")) as ev:
        ev.start()
        ev._proc.wait(timeout=30)
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "process_died"
        assert str(err.value) == "evaluator process exited before responding"


# Starts a grandchild that appends to a heartbeat file every 20 ms (for at
# most 10 s), then reads a request and never answers: a wrapper script
# around a simulator.
HEARTBEAT_CHILD = """
import subprocess, sys, time
subprocess.Popen([sys.executable, "-c", sys.argv[2], sys.argv[1]])
sys.stdin.readline()
time.sleep(60)
"""

HEARTBEAT_GRANDCHILD = """
import sys, time
for _ in range(500):
    with open(sys.argv[1], "a") as beat:
        beat.write(".")
    time.sleep(0.02)
"""


def test_a_timed_out_child_is_killed_with_its_grandchildren(tmp_path):
    beat = tmp_path / "beat"
    spec = child(HEARTBEAT_CHILD, 0.3, str(beat), HEARTBEAT_GRANDCHILD)
    with ExternalEvaluator(spec) as ev:
        ev.start()
        deadline = time.monotonic() + 30
        while not beat.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert beat.exists()
        start = time.perf_counter()
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        elapsed = time.perf_counter() - start
    assert err.value.category == "timeout" and elapsed < 1.0
    time.sleep(0.2)
    size = beat.stat().st_size
    time.sleep(0.3)
    assert beat.stat().st_size == size


# Answers its first request with bytes that are not UTF-8, then stays up.
NOT_UTF8_CHILD = """
import sys
sys.stdin.readline()
sys.stdout.buffer.write(b"\\xff\\xfe garbage\\n")
sys.stdout.flush()
sys.stdin.readline()
"""


def test_a_response_that_is_not_utf8_is_malformed_at_once():
    with ExternalEvaluator(child(NOT_UTF8_CHILD, 10.0)) as ev:
        start = time.perf_counter()
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        elapsed = time.perf_counter() - start
    assert err.value.category == "malformed_response"
    assert "\ufffd\ufffd garbage" in str(err.value)
    assert elapsed < 1.0


# Answers its first request without a newline, then exits.
NO_NEWLINE_CHILD = """
import json, sys
req = json.loads(sys.stdin.readline())
sys.stdout.write(json.dumps({"v": 1, "id": req["id"], "residuals": [2.5]}))
"""


def test_a_last_line_without_a_newline_is_read():
    with ExternalEvaluator(child(NO_NEWLINE_CHILD)) as ev:
        assert np.array_equal(ev(np.array([1.0])), [2.5])
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert str(err.value) == "evaluator process exited before responding"


# Echoes each request in two writes 50 ms apart.
SPLIT_ECHO_CHILD = """
import json, sys, time
for line in sys.stdin:
    req = json.loads(line)
    text = json.dumps({"v": 1, "id": req["id"], "residuals": req["params"]}) + "\\n"
    sys.stdout.write(text[:len(text) // 2])
    sys.stdout.flush()
    time.sleep(0.05)
    sys.stdout.write(text[len(text) // 2:])
    sys.stdout.flush()
"""


# 10_000 reals in a list run to about 200 KB, more than a pipe's 64 KiB.
@pytest.mark.parametrize("script, n", [(SPLIT_ECHO_CHILD, 3), (ECHO_CHILD, 10_000)],
                         ids=["two_writes", "over_64_kib"])
def test_a_response_in_pieces_is_read_whole(script, n):
    beta = np.random.default_rng(5).standard_normal(n)
    with ExternalEvaluator(child(script)) as ev:
        for _ in range(2):  # and the response after it
            assert np.array_equal(ev(beta), beta)
            beta = -beta


def test_a_running_child_starts_no_thread():
    before = threading.active_count()
    with ExternalEvaluator(child(ECHO_CHILD)) as ev:
        ev(np.array([1.0]))
        assert threading.active_count() == before


def test_the_longest_timeout_is_waited_in_steps():
    # A selector refuses a single wait of threading.TIMEOUT_MAX s.
    with ExternalEvaluator(child(ECHO_CHILD, threading.TIMEOUT_MAX)) as ev:
        assert np.array_equal(ev(np.array([1.5])), [1.5])
    with ExternalEvaluator(child(DIE_CHILD, threading.TIMEOUT_MAX)) as ev:
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "process_died"


def test_garbage_line_is_malformed():
    with ExternalEvaluator(child(GARBAGE_CHILD)) as ev:
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "malformed_response"


def test_wrong_id_echo_is_malformed():
    with ExternalEvaluator(child(WRONG_ID_CHILD)) as ev:
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "malformed_response"


# In Python True == 1 and 0.0 == 0, but the wire carries JSON integers only.
@pytest.mark.parametrize("v, req_id, expect_id, message", [
    (1, True, 1, "response id does not echo request id 1"),
    (1, False, 0, "response id does not echo request id 0"),
    (1, 0.0, 0, "response id does not echo request id 0"),
    (True, 1, 1, "response missing protocol version 1"),
    (1.0, 0, 0, "response missing protocol version 1"),
], ids=["id_true", "id_false", "id_float", "v_true", "v_float"])
def test_a_non_integer_id_or_version_is_malformed(v, req_id, expect_id, message):
    with pytest.raises(EvaluatorFailure) as err:
        _decode_response(json.dumps({"v": v, "id": req_id, "residuals": [0.5]}), expect_id)
    assert err.value.category == "malformed_response"
    assert str(err.value).startswith(message + ": ")


def test_length_change_is_enforced():
    with ExternalEvaluator(child(LENGTH_CHANGE_CHILD)) as ev:
        assert ev(np.array([1.0])).size == 3
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "length_changed"


def test_non_finite_response_rejected():
    with ExternalEvaluator(child(INF_CHILD)) as ev:
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "non_finite"


def test_error_response_is_evaluation_failure():
    with ExternalEvaluator(child(ERROR_CHILD)) as ev:
        with pytest.raises(EvaluatorFailure) as err:
            ev(np.array([1.0]))
        assert err.value.category == "evaluation"
        assert "cannot evaluate" in str(err.value)


@pytest.mark.parametrize("error", ["x" * 200_000, ["y" * 1000] * 200, "short"],
                         ids=["long_text", "long_list", "short_text"])
def test_error_response_message_quotes_only_the_head(error):
    with pytest.raises(EvaluatorFailure) as err:
        _decode_response(json.dumps({"v": 1, "id": 0, "error": error}), 0)
    assert err.value.category == "evaluation"
    text = error if isinstance(error, str) else json.dumps(error)
    message = str(err.value)
    if len(text) <= 200:
        assert message == f"evaluator error: {text}"
    else:
        assert message == f"evaluator error: {text[:200]!r}... ({len(text)} characters)"


def test_spawn_failure():
    ev = ExternalEvaluator(
        ExternalEvaluatorSpec(command=("/no/such/binary-here",), timeout=1.0)
    )
    with pytest.raises(EvaluatorFailure) as err:
        ev(np.array([1.0]))
    assert err.value.category == "spawn"


@pytest.mark.parametrize("command, working_dir", [
    ((sys.executable, "-c", "pass\0"), None),
    ((sys.executable,), "a\0b"),
], ids=["argument", "working_dir"])
def test_spawn_failure_on_a_nul_byte(command, working_dir):
    ev = ExternalEvaluator(ExternalEvaluatorSpec(command, working_dir, timeout=1.0))
    with pytest.raises(EvaluatorFailure) as err:
        ev(np.array([1.0]))
    assert err.value.category == "spawn"


def test_one_shot_helper():
    with ExternalEvaluator(child(ECHO_CHILD)) as ev:
        r = ev(np.array([4.0, -2.5]))
    assert np.array_equal(r, [4.0, -2.5])


CONTRACT_CASES = [
    ([[0.0, 0.0, 0.0], [0.0, 0.0]], "length_changed"),
    ([[1.0, 2.0], [1.0, float("nan")]], "non_finite"),
    ([[float("inf"), 2.0]], "non_finite"),
]


@pytest.mark.parametrize("script, replies, category", [
    *[(SCRIPTED_CHILD, *case) for case in CONTRACT_CASES],
    (SCRIPTED_CHILD, [[]], "evaluation"),
    *[(BINARY_SCRIPTED_CHILD, *case) for case in CONTRACT_CASES],
], ids=["length_changed", "nan", "inf", "empty",
        "binary_length_changed", "binary_nan", "binary_inf"])
def test_driver_and_external_evaluator_share_the_residual_contract(
        script, replies, category):
    def failure(evaluate):
        for _ in replies[:-1]:
            evaluate(np.array([1.0]))
        with pytest.raises(EvaluatorFailure) as err:
            evaluate(np.array([1.0]))
        return str(err.value), err.value.category

    script_replies = iter(replies)
    in_process = failure(_CountingEvaluator(lambda beta: next(script_replies)))
    with ExternalEvaluator(child(script, 10.0, json.dumps(replies))) as ev:
        external = failure(ev)
    assert in_process == external
    assert external[1] == category


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExternalEvaluatorSpec(command=())
    with pytest.raises(ConfigError):
        ExternalEvaluatorSpec(command=("x",), timeout=0.0)


def test_external_jacobian_of_echo_model_is_identity():
    # residuals = params has Jacobian exactly I; central differences agree.
    with ExternalEvaluator(child(ECHO_CHILD)) as ev:
        jac = fd_jacobian(ev, np.array([0.4, -1.2]))
    assert np.max(np.abs(jac - np.eye(2))) <= 1e-6


# --- serve loop (child side), driven in process ------------------------------

def run_serve(lines, evaluate=None):
    if evaluate is None:
        data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([1.0, 3.0]))
        evaluate = DatasetEvaluator(LinearModel(), data)
    out = io.StringIO()
    serve(evaluate, io.StringIO(lines), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def test_serve_exact_fit_residuals():
    replies = run_serve('{"v":1,"id":7,"params":[1,2]}\n')
    assert replies == [{"v": 1, "id": 7, "residuals": [0.0, 0.0]}]


def test_serve_malformed_line_gets_error_with_unknown_id():
    replies = run_serve("not json at all\n")
    assert len(replies) == 1
    assert replies[0]["id"] == -1
    assert "error" in replies[0]


def test_serve_echoes_id_when_parseable():
    replies = run_serve('{"v":1,"id":5,"params":"nope"}\n')
    assert replies[0]["id"] == 5
    assert "error" in replies[0]


def test_serve_wrong_version_rejected():
    # true and 1.0 equal 1 in Python, but are no JSON integer
    replies = run_serve("".join(f'{{"v":{v},"id":5,"params":[0,0]}}\n'
                                for v in ("2", "true", "1.0")))
    error = "bad request: missing protocol version 1"
    assert replies == 3 * [{"v": 1, "id": 5, "error": error}]


def test_serve_model_error_keeps_serving():
    lines = (
        '{"v":1,"id":1,"params":[1,2,3]}\n'  # wrong parameter count
        '{"v":1,"id":2,"params":[1,2]}\n'
    )
    replies = run_serve(lines)
    assert "error" in replies[0]
    assert replies[1] == {"v": 1, "id": 2, "residuals": [0.0, 0.0]}


def test_serve_answers_an_overflowing_model_with_an_error():
    # serve checks each reply, as no run does in the child: exp overflows
    # from x = 1 on, and the reply names the first non-finite index.
    data = Dataset(x=np.array([0.0, 1.0, 2.0]), y=np.array([1.0, 0.5, 0.25]))
    replies = run_serve('{"v":1,"id":4,"params":[1.0,-1000.0]}\n'
                        '{"v":1,"id":5,"params":[1.0,0.0]}\n',
                        DatasetEvaluator(ExponentialDecayModel(), data))
    assert replies == [
        {"v": 1, "id": 4, "error": "non-finite residual at index 1"},
        {"v": 1, "id": 5, "residuals": [0.0, -0.5, -0.75]},
    ]


def test_serve_answers_unexpected_model_exception():
    calls = []

    def evaluate(params):
        calls.append(params)
        if len(calls) == 1:
            return 1.0 / 0
        return params

    replies = run_serve('{"v":1,"id":1,"params":[1]}\n'
                        '{"v":1,"id":2,"params":[2]}\n', evaluate)
    assert replies == [
        {"v": 1, "id": 1, "error": "ZeroDivisionError: float division by zero"},
        {"v": 1, "id": 2, "residuals": [2.0]},
    ]


def test_serve_skips_blank_lines_and_stops_at_eof():
    replies = run_serve("\n\n")
    assert replies == []


def test_serve_round_trip_is_bit_exact():
    data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([1.0, 3.0]))
    evaluate = DatasetEvaluator(LinearModel(), data)
    beta = np.array([0.1 + 0.2, -1.0 / 3.0])
    direct = evaluate(beta)
    request = json.dumps({"v": 1, "id": 0, "params": [float(b) for b in beta]})
    (reply,) = run_serve(request + "\n")
    assert np.array_equal(np.asarray(reply["residuals"]), direct)


def test_request_offers_the_binary_form():
    # List-sending children, such as ECHO_CHILD above, ignore the key.
    assert json.loads(encode_request(3, [0.5])) == {
        "v": 1, "id": 3, "params": [0.5], "binary": True}


# --- binary residual payload --------------------------------------------------

@pytest.mark.parametrize("values", [
    np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]),
    np.random.default_rng(12).standard_normal(10_000) * np.logspace(-150, 150, 10_000),
], ids=["tricky", "seeded_1e4"])
def test_binary_round_trip_is_bit_exact(values):
    request = json.dumps({"v": 1, "id": 4, "params": [1.0], "binary": True})
    out = io.StringIO()
    serve(lambda params: values, io.StringIO(request + "\n"), out)
    (line,) = out.getvalue().splitlines()
    assert set(json.loads(line)) == {"v", "id", "residuals_b64"}
    decoded = _decode_response(line, 4)
    assert decoded.dtype == np.dtype(float) and decoded.flags.writeable
    assert np.array_equal(decoded.view(np.uint64), values.view(np.uint64))


def test_binary_response_must_be_a_vector():
    with pytest.raises(TypeError, match=r"residuals must be a vector, got shape \(2, 2\)"):
        encode_response(0, residuals=np.zeros((2, 2)), binary=True)


@pytest.mark.parametrize("extra", [{}, {"binary": False}, {"binary": 1}],
                         ids=["absent", "false", "one"])
def test_request_without_binary_true_gets_the_list_form(extra):
    request = json.dumps({"v": 1, "id": 7, "params": [1, 2], **extra})
    assert run_serve(request + "\n") == [{"v": 1, "id": 7, "residuals": [0.0, 0.0]}]


@pytest.mark.parametrize("body", [
    {"residuals": [1.0], "residuals_b64": base64.b64encode(bytes(8)).decode()},
    {"residuals_b64": 12345678},
    {"residuals_b64": ["AAAAAAAAAAA="]},
    {"residuals_b64": "AAAA*AAAAAA="},
    {"residuals_b64": "AAAAAAAAAAA=\n"},
    {"residuals_b64": base64.b64encode(bytes(12)).decode()},
    {"residuals_b64": ""},
    {},
    {"residuals": [[0.5], [1.5]]},
    {"residuals": [0.5, True]},
    {"residuals": [0.5, "1.5"]},
    {"residuals": [0.5, 10**400]},
], ids=["both_keys", "number", "list", "bad_char", "newline", "12_bytes", "empty",
        "neither_key", "nested_list", "bool_in_list", "string_in_list", "huge_int_in_list"])
def test_malformed_binary_payload(body):
    with pytest.raises(EvaluatorFailure) as err:
        _decode_response(json.dumps({"v": 1, "id": 0, **body}), 0)
    assert err.value.category == "malformed_response"


@pytest.mark.parametrize("line", [
    "x" * 200_000,
    json.dumps({"v": 1, "id": 0, "residuals": ["0.5"] * 20_000}),
    json.dumps({"v": 2, "id": 0, "residuals": [0.5] * 20_000}),
    json.dumps({"v": 1, "id": 1, "residuals": [0.5] * 20_000}),
], ids=["not_json", "strings", "version", "id"])
def test_malformed_response_message_quotes_only_the_head(line):
    with pytest.raises(EvaluatorFailure) as err:
        _decode_response(line, 0)
    assert err.value.category == "malformed_response"
    message = str(err.value)
    assert len(message) < 400
    assert f"({len(line)} characters)" in message
    assert repr(line[:200]) in message


# --- fuzzing the wire ---------------------------------------------------------

response_keys = st.sampled_from(["v", "id", "residuals", "residuals_b64", "error"])


@settings(max_examples=200, deadline=None)
@given(st.text())
@example("1" * 5000)
@example("[" * 100_000)
def test_decode_arbitrary_text_raises_only_evaluator_failure(line):
    try:
        _decode_response(line, 0)
    except EvaluatorFailure:
        pass


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(response_keys, json_values), st.binary(max_size=64),
       st.booleans())
def test_decode_arbitrary_responses_raises_only_evaluator_failure(body, raw, encode):
    body.setdefault("v", 1)
    body.setdefault("id", 0)
    if encode:
        body["residuals_b64"] = base64.b64encode(raw).decode()
    try:
        r = _decode_response(json.dumps(body), 0)
    except EvaluatorFailure:
        return
    assert r.dtype == np.dtype(float) and r.ndim == 1
    if "residuals_b64" in body:
        assert r.tobytes() == base64.b64decode(body["residuals_b64"])


request_lines = st.one_of(
    st.text(),
    st.fixed_dictionaries(
        {"v": st.sampled_from([1, 2]), "id": json_values},
        optional={"params": st.lists(st.integers() | st.floats(), max_size=3)
                  | json_values,
                  "binary": json_values},
    ).map(json.dumps),
).map(lambda line: line.replace("\n", " "))


def expected_id(line: str) -> int:
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError):
        return -1
    if isinstance(obj, dict) and type(obj.get("id")) is int:
        return obj["id"]
    return -1


@settings(max_examples=200, deadline=None)
@given(st.lists(request_lines, max_size=6))
@example(['{"v": 1, "id": 3, "params": [%d]}' % 10**400])
@example(["[" * 100_000])
def test_serve_answers_every_line_once(lines):
    replies = run_serve("".join(line + "\n" for line in lines))
    answered = [line for line in lines if line.strip()]
    assert len(replies) == len(answered)
    for reply, line in zip(replies, answered):
        assert reply["v"] == 1
        assert reply["id"] == expected_id(line.strip())
        assert len(set(reply) & {"residuals", "residuals_b64", "error"}) == 1
