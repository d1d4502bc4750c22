import gc
import io
import json
import sys
import time
import warnings

import numpy as np
import pytest

from broydenfit import (
    ConfigError,
    Dataset,
    DatasetEvaluator,
    EvaluatorFailure,
    ExternalEvaluator,
    ExternalEvaluatorSpec,
    LinearModel,
)
from broydenfit.core import _CountingEvaluator
from broydenfit.external import serve
from broydenfit.fdiff import fd_jacobian

ECHO_CHILD = """
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"v": 1, "id": req["id"], "residuals": req["params"]}), flush=True)
"""

DIE_CHILD = "import sys; sys.exit(3)"

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


@pytest.mark.parametrize("script, timeout, fails", [
    (ECHO_CHILD, 10.0, False),
    (SLEEP_CHILD, 0.3, True),
], ids=["normal", "after_timeout"])
def test_close_leaves_no_pipe_open(script, timeout, fails):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        ev = ExternalEvaluator(child(script, timeout))
        if fails:
            with pytest.raises(EvaluatorFailure):
                ev(np.array([1.0]))
        else:
            ev(np.array([1.0]))
        ev.close()
        assert not ev._reader.is_alive()  # close() waited for it
        del ev
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


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


def test_spawn_failure():
    ev = ExternalEvaluator(
        ExternalEvaluatorSpec(command=("/no/such/binary-here",), timeout=1.0)
    )
    with pytest.raises(EvaluatorFailure) as err:
        ev(np.array([1.0]))
    assert err.value.category == "spawn"


def test_one_shot_helper():
    with ExternalEvaluator(child(ECHO_CHILD)) as ev:
        r = ev(np.array([4.0, -2.5]))
    assert np.array_equal(r, [4.0, -2.5])


@pytest.mark.parametrize("replies, category", [
    ([[0.0, 0.0, 0.0], [0.0, 0.0]], "length_changed"),
    ([[1.0, 2.0], [1.0, float("nan")]], "non_finite"),
    ([[float("inf"), 2.0]], "non_finite"),
    ([[]], "evaluation"),
], ids=["length_changed", "nan", "inf", "empty"])
def test_driver_and_external_evaluator_share_the_residual_contract(replies, category):
    def failure(evaluate):
        for _ in replies[:-1]:
            evaluate(np.array([1.0]))
        with pytest.raises(EvaluatorFailure) as err:
            evaluate(np.array([1.0]))
        return str(err.value), err.value.category

    script = iter(replies)
    in_process = failure(_CountingEvaluator(lambda beta: next(script)))
    with ExternalEvaluator(child(SCRIPTED_CHILD, 10.0, json.dumps(replies))) as ev:
        external = failure(ev)
    assert in_process == external
    assert external[1] == category


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExternalEvaluatorSpec(command=())
    with pytest.raises(ConfigError):
        ExternalEvaluatorSpec(command=("x",), timeout=0.0)
    with pytest.raises(ConfigError):
        ExternalEvaluatorSpec(command=("x",), protocol_version=2)


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
    replies = run_serve('{"v":2,"id":5,"params":[0,0]}\n')
    assert "error" in replies[0]


def test_serve_model_error_keeps_serving():
    lines = (
        '{"v":1,"id":1,"params":[1,2,3]}\n'  # wrong parameter count
        '{"v":1,"id":2,"params":[1,2]}\n'
    )
    replies = run_serve(lines)
    assert "error" in replies[0]
    assert replies[1] == {"v": 1, "id": 2, "residuals": [0.0, 0.0]}


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
