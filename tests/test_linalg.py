import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcg import linalg
from brute import dense_kron, dense_sym_kron, cofactor_det, random_spd


def test_sym_kron_solve_identity_and_diagonal():
    rng = np.random.default_rng(7)
    Y = random_spd(rng, 3)
    assert np.allclose(linalg.sym_kron_solve_sym(np.eye(3), Y), Y)
    got = linalg.sym_kron_solve_sym(np.diag([1.0, 2.0]), np.eye(2))
    assert np.allclose(got, np.diag([1.0, 0.25]))


def test_sym_kron_solve_round_trip():
    rng = np.random.default_rng(8)
    W = random_spd(rng, 4)
    Y = random_spd(rng, 4) + np.eye(4)
    X = linalg.sym_kron_solve_sym(W, Y)
    assert np.array_equal(X, X.T)
    back = dense_sym_kron(W, W) @ X.reshape(-1)
    assert np.allclose(back, Y.reshape(-1), rtol=1e-9, atol=1e-10)


def test_sym_kron_solve_rejects_bad_inputs():
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.sym_kron_solve_sym(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError):
        linalg.sym_kron_solve_sym(np.eye(2), np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_cholesky_diagonal_and_hand_case():
    f = linalg.cholesky(np.diag([4.0, 9.0]))
    assert f.jitter == 0.0
    assert np.allclose(f.L, np.diag([2.0, 3.0]))
    f = linalg.cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert np.allclose(f.L, [[2.0, 0.0], [1.0, 2.0]])


def test_cholesky_indefinite_raises():
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_jitter_reported_on_singular_input():
    ones = np.ones((3, 3))  # rank one, needs a jitter rung
    f = linalg.cholesky(ones)
    assert f.jitter > 0.0
    assert np.allclose(f.L @ f.L.T, ones + f.jitter * np.eye(3), rtol=1e-8, atol=1e-10)
    assert np.array_equal(ones, np.ones((3, 3)))  # the jittered matrix is a copy


def test_cholesky_with_truncation_reports_column():
    A = np.diag([4.0, 1.0, -1.0, 2.0])
    L, cols = linalg.cholesky_with_truncation(A)
    assert cols == 2
    assert np.allclose(L, np.diag([2.0, 1.0]))
    L, cols = linalg.cholesky_with_truncation(np.diag([1.0, 2.0]))
    assert cols == 2


def test_chol_solve_identity_and_contract():
    f = linalg.cholesky(np.eye(3))
    B = np.arange(9.0).reshape(3, 3)
    assert np.allclose(linalg.chol_solve(f, B), B)
    f = linalg.cholesky(np.array([[4.0]]))
    assert np.allclose(linalg.chol_solve(f, np.array([8.0])), [2.0])
    rng = np.random.default_rng(9)
    A = random_spd(rng, 5)
    b = rng.standard_normal(5)
    x = linalg.chol_solve(linalg.cholesky(A), b)
    assert np.allclose(A @ x, b, rtol=1e-10, atol=1e-12)


def test_chol_solve_round_trip_high_condition():
    rng = np.random.default_rng(10)
    A = random_spd(rng, 8, cond=1e6)
    b = rng.standard_normal(8)
    x = linalg.chol_solve(linalg.cholesky(A), b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 40), st.floats(0.0, 6.0))
def test_chol_quad_diag_is_the_diagonal_of_the_quadratic_form(seed, p, n, log_cond):
    rng = np.random.default_rng(seed)
    factor = linalg.cholesky(random_spd(rng, p, cond=10.0**log_cond))
    U = rng.standard_normal((p, n))
    got = linalg.chol_quad_diag(factor, U)
    want = np.diag(U.T @ linalg.chol_solve(factor, U))
    assert got.shape == (n,)
    assert np.all(got >= 0.0)
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_chol_quad_diag_holds_one_array_the_size_of_its_input(order):
    # L^{-1} U is squared in place: besides U only it, the output and the
    # solver's copy of L are live (two P x n arrays before).
    rng = np.random.default_rng(13)
    p, n = 30, 4000
    factor = linalg.cholesky(random_spd(rng, p, cond=1e4))
    U = np.asarray(rng.standard_normal((p, n)), order=order)
    tracemalloc.start()
    try:
        linalg.chol_quad_diag(factor, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (p * n + n + p * p) + (16 << 10)


def test_chol_quad_diag_rejects_mismatched_rows():
    factor = linalg.cholesky(np.eye(3))
    with pytest.raises(ValueError):
        linalg.chol_quad_diag(factor, np.ones((2, 4)))


def test_logdet_cases():
    assert linalg.logdet(linalg.cholesky(np.eye(3))) == pytest.approx(0.0)
    e = np.e
    assert linalg.logdet(linalg.cholesky(np.diag([e, e]))) == pytest.approx(2.0)
    rng = np.random.default_rng(11)
    A = random_spd(rng, 3)
    assert linalg.logdet(linalg.cholesky(A)) == pytest.approx(np.log(cofactor_det(A)), rel=1e-10)


def test_kron_identities_k1_to_k5():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        B = rng.standard_normal((n, n)) + n * np.eye(n)
        C = rng.standard_normal((n, n))
        D = rng.standard_normal((n, n))
        AB = dense_kron(A, B)
        # K1: (A kron B) vec(C) = vec(A C B^T), rows stacked
        assert np.allclose(AB @ C.reshape(-1), (A @ C @ B.T).reshape(-1), rtol=1e-12, atol=1e-12)
        # K2
        assert np.allclose(AB @ dense_kron(C, D), dense_kron(A @ C, B @ D), rtol=1e-12, atol=1e-11)
        # K3
        assert np.allclose(np.linalg.inv(AB), dense_kron(np.linalg.inv(A), np.linalg.inv(B)), rtol=1e-9, atol=1e-10)
        # K4
        assert np.allclose(AB.T, dense_kron(A.T, B.T))
        # K5
        assert np.allclose(dense_kron(A + B, C), dense_kron(A, C) + dense_kron(B, C))


def test_sym_kron_sample_degenerate_and_symmetric():
    rng = np.random.default_rng(13)
    W = random_spd(rng, 3)
    draw = linalg.sym_kron_sample(W, W, rng)
    assert np.max(np.abs(draw)) < 1e-4  # W - W_M = 0, only ladder jitter survives
    for seed in range(5):
        rng2 = np.random.default_rng(seed)
        W = random_spd(rng2, 4)
        W_M = 0.5 * W
        out = linalg.sym_kron_sample(W, W_M, rng2)
        assert np.array_equal(out, out.T)  # bit-exact symmetry


def test_sym_kron_sample_empirical_covariance():
    # Covariance of the draws must match the dense operator
    # W sk W - W_M sk W_M entrywise within five standard errors.
    rng = np.random.default_rng(14)
    W = np.array([[2.0, 0.6], [0.6, 1.5]])
    W_M = np.array([[0.8, 0.2], [0.2, 0.5]])
    target = dense_sym_kron(W, W) - dense_sym_kron(W_M, W_M)
    n_draws = 20000
    draws = linalg.sym_kron_sample(W, W_M, rng, size=n_draws).reshape(n_draws, -1)
    emp = draws.T @ draws / n_draws
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n_draws)
    assert np.all(np.abs(emp - target) <= 5.0 * se + 1e-12)


def test_sym_kron_sample_stack_equals_successive_draws_from_one_factorization():
    W = random_spd(np.random.default_rng(15), 4)
    W_M = 0.3 * W
    rng = np.random.default_rng(16)
    singles = np.stack([linalg.sym_kron_sample(W, W_M, rng) for _ in range(5)])
    with mock.patch.object(linalg, "cholesky", wraps=linalg.cholesky) as factor:
        stack = linalg.sym_kron_sample(W, W_M, np.random.default_rng(16), size=5)
    assert factor.call_count == 2
    assert np.array_equal(stack, singles)
    assert np.array_equal(stack, np.swapaxes(stack, 1, 2))
    assert np.array_equal(linalg.sym_kron_sample(W, W, rng, size=3), np.zeros((3, 4, 4)))


def test_cholesky_without_jitter_allocates_only_the_factor():
    A = random_spd(np.random.default_rng(3), 300)
    tracemalloc.start()
    try:
        f = linalg.cholesky(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.jitter == 0.0
    assert peak < 1.5 * A.nbytes
