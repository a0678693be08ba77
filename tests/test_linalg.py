import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtfttr

from kernelcg import linalg
from kernelcg.kernels import _BLOCK_ENTRIES, gram, gram_lower, se_kernel
from brute import dense_kron, dense_sym_kron, cofactor_det, gauss_solve, random_spd


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
    assert f.L[0, 1] == 0.0


def test_cholesky_indefinite_raises():
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _filler(A, fills):
    """fill(arf) for linalg.cholesky_rfp, writing A's lower triangle and counting its calls in `fills`."""
    def fill(arf):
        fills.append(1)
        column = linalg.rfp_columns(arf, A.shape[0])
        for j in range(A.shape[0]):
            column(j)[...] = A[j:, j]

    return fill


def _factor(A, packed):
    """linalg.cholesky of A, or with `packed` the RFP ladder on A's lower triangle."""
    return linalg.cholesky_rfp(A.shape[0], _filler(A, [])) if packed else linalg.cholesky(A)


@pytest.mark.parametrize("packed", [False, True])
def test_cholesky_rejects_non_finite_entries(packed):
    # An infinite diagonal once came back inside the factor. A non-finite
    # entry below a finite diagonal leaves a NaN or -inf pivot, which fails
    # every rung (OpenBLAS's potrf reports no failure at a NaN pivot), in
    # full storage and in rectangular full packed form alike.
    inf_diag = np.asfortranarray(np.diag([1.0, np.inf]))
    with pytest.raises(ValueError, match="non-finite diagonal"):
        _factor(inf_diag, packed)
    for bad in (np.nan, np.inf):
        A = np.asfortranarray(np.eye(3))
        A[2, 0] = A[0, 2] = bad
        before = A.copy()
        with pytest.raises(linalg.NotPositiveDefiniteError):
            _factor(A, packed)
        assert np.array_equal(A, before, equal_nan=True)


def test_solves_check_the_right_hand_side_only():
    factor = linalg.cholesky(np.diag([4.0, 9.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            linalg.chol_solve(factor, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="infs or NaNs"):
            linalg.chol_quad_diag(factor, np.array([[1.0], [bad]]))


def test_cholesky_jitter_reported_on_singular_input():
    ones = np.ones((3, 3))  # rank one, needs a jitter rung
    f = linalg.cholesky(ones)
    assert f.jitter > 0.0 and not np.any(np.triu(f.L, 1))
    assert np.allclose(f.L @ f.L.T, ones + f.jitter * np.eye(3), rtol=1e-8, atol=1e-10)
    assert np.array_equal(ones, np.ones((3, 3)))  # the jittered matrix is a copy


def test_cholesky_with_truncation_reports_column():
    A = np.diag([4.0, 1.0, -1.0, 2.0])
    L, cols = linalg.cholesky_with_truncation(A)
    assert cols == 2
    assert np.allclose(L, np.diag([2.0, 1.0]))
    L, cols = linalg.cholesky_with_truncation(np.diag([1.0, 2.0]))
    assert cols == 2
    # potrf runs on through NaN and +inf pivots (info 0), so only the scan
    # of the factor's diagonal cuts at them.
    # A NaN at (3, 1) is first read by pivot 3.
    for entry, value, kept in [((3, 1), np.nan, 3), ((2, 2), np.nan, 2), ((2, 2), np.inf, 2)]:
        A = np.diag([4.0, 1.0, 9.0, 2.0, 3.0])
        A[entry] = value
        L, cols = linalg.cholesky_with_truncation(A)
        assert cols == kept
        assert np.array_equal(L, np.diag([2.0, 1.0, 3.0])[:kept, :kept])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 11), st.floats(0.01, 1.0))
def test_truncation_keeps_an_spd_factor_and_cuts_at_a_nonpositive_pivot(seed, n, k, depth):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n)
    L, cols = linalg.cholesky_with_truncation(A)
    factor = linalg.cholesky(A)
    assert (cols, factor.jitter) == (n, 0.0) and np.array_equal(L, factor.L)
    # The Schur complement of the leading k x k block, pivot k, becomes
    # -depth * A_kk: the cut is at k, and the kept factor is the block's.
    k %= n
    lead = A[:k, :k]
    A[k, k] = A[:k, k] @ np.linalg.solve(lead, A[:k, k]) - depth * A[k, k]
    L, cols = linalg.cholesky_with_truncation(A)
    assert cols == k and L.shape == (k, k)
    assert np.max(np.abs(L @ L.T - lead), initial=0.0) <= 1e-12 * np.max(np.abs(lead), initial=0.0)


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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6), st.floats(0.0, 2.0))
def test_prefix_rows_are_solves_with_the_leading_block(seed, p, n, log_cond):
    # Row q - 1 of the reads is U_q^T A_q^{-1} b_q and the count-q diagonal
    # of U_q^T A_q^{-1} U_q, solved directly with the leading q x q block A_q
    # of A = L L^T; U with k < p rows reads the leading k x k block of L.
    rng = np.random.default_rng(seed)
    A = random_spd(rng, p, cond=10.0**log_cond)
    U = rng.standard_normal((p, n))
    b = rng.standard_normal(p)
    factor = linalg.cholesky(A)
    sums, diag = linalg.chol_prefix_reads(factor, U, solve_triangular(factor.L, b, lower=True))
    assert sums.shape == diag.shape == (p, n)
    for q in range(1, p + 1):
        solved = gauss_solve(A[:q, :q], np.column_stack([U[:q], b[:q]])).reshape(q, n + 1)
        expected = np.sum(U[:q] * solved[:, :n], axis=0)
        assert np.max(np.abs(diag[q - 1] - expected)) <= 1e-12 * np.max(np.abs(expected))
        expected = U[:q].T @ solved[:, n]
        assert np.max(np.abs(sums[q - 1] - expected)) <= 1e-10 * np.max(np.abs(U[:q])) * np.max(np.abs(solved[:, n]))
    k = (p + 1) // 2
    none, leading = linalg.chol_prefix_reads(factor, U[:k].copy())
    assert none is None
    assert np.allclose(leading, diag[:k], rtol=1e-12, atol=0.0)


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


@pytest.mark.parametrize("shift, rung", [(0.0, 1e-12), (5e-9, 1e-8)])
def test_cholesky_rfp_ladder(shift, rung):
    # Each point twice: the Gram is singular and the zero rung fails; with
    # its diagonal lowered by 5e-9 the rungs up to 1e-9 fail too. The
    # copying mode restores its factor from A after each failed rung and
    # reads the lower
    # triangle only: given junk above the diagonal it returns the factor of
    # the symmetric Gram bit for bit and leaves its argument as it was.
    # pftrf overwrites the whole RFP array, so each rung after the first
    # fills it again: one fill per rung tried, beside one array of N(N+1)/2
    # floats and one assembly block. The packed ladder stops at the same
    # rung, and its factor reproduces the jittered matrix.
    X = np.random.default_rng(17).uniform(0, 2, (100, 2))
    kernel, points, n = se_kernel([1.0, 1.0]), np.vstack([X, X]), 200
    K = gram(kernel, points)
    K[np.diag_indices_from(K)] -= shift
    A = np.tril(K) + np.triu(np.random.default_rng(19).standard_normal(K.shape), 1)
    before = A.copy()
    copied = linalg.cholesky(A)
    fills = []

    def fill(arf):
        fills.append(1)
        gram_lower(kernel, points, linalg.rfp_columns(arf, n), -shift)

    tracemalloc.start()
    try:
        f = linalg.cholesky_rfp(n, fill)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    jitter = rung * np.mean(np.diag(K))
    assert f.jitter == jitter == copied.jitter
    assert np.array_equal(copied.L, linalg.cholesky(K).L)
    assert np.array_equal(A, before)
    assert not np.any(np.triu(copied.L, 1))
    assert np.allclose(copied.L @ copied.L.T, np.tril(A) + np.tril(A, -1).T + jitter * np.eye(n), rtol=0.0, atol=1e-13)
    assert len(fills) == linalg.JITTER_LADDER.index(rung) + 2
    L = dtfttr(n, f.arf, transr="N", uplo="L")[0]
    assert np.array_equal(L.diagonal(), f.diagonal())
    assert np.allclose(np.tril(L) @ np.tril(L).T, K + jitter * np.eye(n), rtol=0.0, atol=1e-13)
    assert peak < f.arf.nbytes + _BLOCK_ENTRIES * 8 + (16 << 10)


def test_cholesky_restores_a_matrix_no_rung_factors():
    # Neither ladder factors an indefinite matrix; the full one leaves its
    # argument as it was, and the packed one tries every rung, filling its
    # array once for each.
    A = np.asfortranarray(np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.0], [0.5, 0.0, 3.0]]))
    before, fills = A.copy(), []
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.cholesky(A)
    assert np.array_equal(A, before)
    with pytest.raises(linalg.NotPositiveDefiniteError):
        linalg.cholesky_rfp(3, _filler(A, fills))
    assert len(fills) == len(linalg.JITTER_LADDER) + 1


def test_cholesky_copying_mode_leaves_its_argument_untouched():
    X = np.random.default_rng(18).uniform(0, 2, (40, 2))
    K = np.asfortranarray(gram(se_kernel([1.0, 1.0]), np.vstack([X, X])))
    before = K.copy()
    f = linalg.cholesky(K)
    assert f.jitter > 0.0 and not np.shares_memory(f.L, K)
    assert np.array_equal(K, before)
