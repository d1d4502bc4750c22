import numpy as np
import pytest

from broydenfit.errors import SingularSystem
from broydenfit.linalg import solve


def test_identity_solve():
    x = solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, [1.0, 2.0, 3.0])


def test_diagonal_solve():
    x = solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], rtol=0, atol=1e-15)


def test_rank_one_matrix_raises():
    with pytest.raises(SingularSystem):
        solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))


def test_zero_matrix_raises():
    with pytest.raises(SingularSystem):
        solve(np.zeros((2, 2)), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where", ["a", "b"])
def test_non_finite_input_raises_value_error(where, bad):
    a, b = np.eye(2), np.ones(2)  # nonsingular, so the check on b is reached too
    if where == "a":
        a[1, 0] = bad
    else:
        b[1] = bad
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        solve(a, b)


def test_relative_residual_bound():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 20):
        m = rng.standard_normal((n, n))
        a = m.T @ m + np.eye(n)
        b = rng.standard_normal(n)
        x = solve(a, b)
        rel = np.linalg.norm(a @ x - b) / (
            np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert rel <= 1e-10


def test_spd_round_trip_up_to_n50():
    rng = np.random.default_rng(11)
    for n in (2, 10, 50):
        for _ in range(5):
            m = rng.standard_normal((n, n))
            a = m.T @ m + np.eye(n)
            b = rng.standard_normal(n)
            x = solve(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-9 * (1 + np.max(np.abs(b)))


def test_symmetric_permutation_invariance():
    rng = np.random.default_rng(3)
    n = 6
    m = rng.standard_normal((n, n))
    a = m.T @ m + np.eye(n)
    b = rng.standard_normal(n)
    x = solve(a, b)
    perm = rng.permutation(n)
    xp = solve(a[np.ix_(perm, perm)], b[perm])
    assert np.allclose(xp, x[perm], rtol=1e-12, atol=1e-12)
