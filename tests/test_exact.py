import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from kernelcg import exact, linalg
from kernelcg.datasets import TOY_DEFAULT_SIGMA2, gen_toy, toy_kernel
from kernelcg.kernels import gram, se_kernel
from kernelcg.lowrank import FeatureExpansion, lowrank_fit, lowrank_mean
from brute import gauss_solve, mvn_logpdf
from mpref import exact_reference


def _random_problem(seed, n, d=2, lam=2.0, theta=1.5, sigma2=0.1):
    rng = np.random.default_rng(seed)
    kernel = se_kernel(np.full(d, lam), theta)
    X = rng.uniform(0, 2, (n, d))
    y = rng.standard_normal(n)
    return kernel, X, y, sigma2


def test_fit_scalar_case():
    kernel = se_kernel([1.0], 2.0)
    model = exact.fit(kernel, [[0.0]], [3.0], 0.5)
    assert np.allclose(model.alpha, 3.0 / 2.5)


def test_fit_residual_invariant():
    kernel, X, y, sigma2 = _random_problem(0, 50)
    model = exact.fit(kernel, X, y, sigma2)
    K = gram(kernel, X) + sigma2 * np.eye(50)
    assert np.linalg.norm(K @ model.alpha - y) <= 1e-10 * np.linalg.norm(y)


def test_toy_dataset_fits_without_jitter():
    data = gen_toy(seed=2)
    assert data.n_train == 100
    model = exact.fit(toy_kernel(), data.X, data.y, TOY_DEFAULT_SIGMA2)
    assert model.factor.jitter == 0.0


def test_predict_mean_interpolates_at_tiny_noise():
    kernel, X, y, _ = _random_problem(1, 20, lam=4.0)
    model = exact.fit(kernel, X, y, 1e-12)
    assert np.allclose(exact.predict_mean(model, X), y, atol=1e-5)


def test_predict_mean_scalar_closed_form():
    kernel = se_kernel([1.0], 2.0)
    model = exact.fit(kernel, [[0.0]], [3.0], 0.5)
    x_star = np.array([[0.7]])
    expected = gram(kernel, x_star, [[0.0]])[0, 0] * 3.0 / 2.5
    assert exact.predict_mean(model, x_star)[0] == pytest.approx(expected)


def test_predict_mean_matches_elimination_oracle():
    kernel, X, y, sigma2 = _random_problem(2, 20)
    model = exact.fit(kernel, X, y, sigma2)
    rng = np.random.default_rng(3)
    X_star = rng.uniform(0, 2, (7, 2))
    alpha = gauss_solve(gram(kernel, X) + sigma2 * np.eye(20), y)
    expected = gram(kernel, X_star, X) @ alpha
    assert np.allclose(exact.predict_mean(model, X_star), expected, rtol=1e-10, atol=1e-12)


def test_predict_cov_far_field_and_diagonal():
    kernel, X, y, sigma2 = _random_problem(4, 25)
    model = exact.fit(kernel, X, y, sigma2)
    far = np.full((1, 2), 1e3)
    assert exact.predict_cov(model, far)[0, 0] == pytest.approx(kernel.theta_f)
    rng = np.random.default_rng(5)
    X_star = rng.uniform(0, 2, (10, 2))
    assert np.min(np.diag(exact.predict_cov(model, X_star))) >= -1e-10
    assert np.allclose(np.diag(exact.predict_cov(model, X_star)), exact.predict_var(model, X_star))


def test_predict_mean_and_var_bit_identical_to_the_direct_formulas():
    # The direct formulas: k(X*, X) alpha, and theta_f minus the column
    # sums of (L^{-1} k(X, X*))^2.
    kernel, X, y, sigma2 = _random_problem(8, 60)
    model = exact.fit(kernel, X, y, sigma2)
    X_star = np.random.default_rng(9).uniform(0, 2, (45, 2))
    half = solve_triangular(model.factor.L, gram(kernel, X, X_star), lower=True)
    want_var = np.full(45, kernel.theta_f) - np.sum(half * half, axis=0)
    assert np.array_equal(exact.predict_var(model, X_star), want_var)
    assert np.array_equal(exact.predict_mean(model, X_star), gram(kernel, X_star, X) @ model.alpha)


def test_predict_cov_matches_elimination_oracle():
    kernel, X, y, sigma2 = _random_problem(6, 20)
    model = exact.fit(kernel, X, y, sigma2)
    rng = np.random.default_rng(7)
    A = rng.uniform(0, 2, (4, 2))
    B = rng.uniform(0, 2, (3, 2))
    K = gram(kernel, X) + sigma2 * np.eye(20)
    expected = gram(kernel, A, B) - gram(kernel, A, X) @ gauss_solve(K, gram(kernel, X, B))
    assert np.allclose(exact.predict_cov(model, A, B), expected, rtol=1e-10, atol=1e-12)


def test_log_evidence_univariate():
    kernel = se_kernel([1.0], 2.0)
    model = exact.fit(kernel, [[0.0]], [3.0], 0.5)
    expected = -0.5 * 9.0 / 2.5 - 0.5 * np.log(2.5) - 0.5 * np.log(2 * np.pi)
    assert exact.log_evidence(model) == pytest.approx(expected)


def test_log_evidence_matches_density_oracle():
    kernel, X, y, sigma2 = _random_problem(8, 6)
    model = exact.fit(kernel, X, y, sigma2)
    expected = mvn_logpdf(y, gram(kernel, X) + sigma2 * np.eye(6))
    assert exact.log_evidence(model) == pytest.approx(expected, rel=1e-10)


def test_log_evidence_permutation_invariant():
    kernel, X, y, sigma2 = _random_problem(9, 15)
    model = exact.fit(kernel, X, y, sigma2)
    perm = np.random.default_rng(10).permutation(15)
    permuted = exact.fit(kernel, X[perm], y[perm], sigma2)
    assert exact.log_evidence(permuted) == pytest.approx(exact.log_evidence(model), rel=1e-12)


def test_log_evidence_decreases_for_scaled_targets():
    data = gen_toy(seed=11)
    model = exact.fit(toy_kernel(), data.X, data.y, TOY_DEFAULT_SIGMA2)
    scaled = exact.fit(toy_kernel(), data.X, 10.0 * data.y, TOY_DEFAULT_SIGMA2)
    assert exact.log_evidence(scaled) < exact.log_evidence(model)


def test_mean_matches_complete_degeneracy_lowrank():
    # Features phi(x) = k(X, x) with Sigma = K reproduce the exact predictor.
    kernel, X, y, sigma2 = _random_problem(12, 30)
    model = exact.fit(kernel, X, y, sigma2)
    expansion = FeatureExpansion(phi=lambda q: gram(kernel, q, X), Sigma=gram(kernel, X))
    low = lowrank_fit(expansion, X, y, sigma2)
    rng = np.random.default_rng(13)
    X_star = rng.uniform(0, 2, (8, 2))
    a = exact.predict_mean(model, X_star)
    b = lowrank_mean(low, X_star)
    assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)


def test_fit_holds_no_n_by_n_temporary_beyond_gram_and_factor():
    kernel, X, y, sigma2 = _random_problem(7, 400)
    tracemalloc.start()
    try:
        exact.fit(kernel, X, y, sigma2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 400 * 400 * 8


def test_predict_var_is_blocked_over_test_points(monkeypatch):
    # N = 300 and n* = 4000 fit in one default block; with 16384-entry blocks
    # (54 test points each) the peak stays below a quarter of one N x n*
    # array and every variance is unchanged.
    kernel, X, y, sigma2 = _random_problem(13, 300)
    model = exact.fit(kernel, X, y, sigma2)
    X_star = np.random.default_rng(14).uniform(0, 2, (4000, 2))
    want = exact.predict_var(model, X_star)
    monkeypatch.setattr(exact, "_CROSS_BLOCK_ENTRIES", 1 << 14)
    tracemalloc.start()
    try:
        got = exact.predict_var(model, X_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 4000 * 8 / 4
    assert np.array_equal(got, want)


def test_mean_var_and_evidence_match_a_40_digit_reference():
    # N = 24, n* = 5 (three new points and two training inputs), noise swept
    # so that cond(K + sigma2 I) runs from 2.8e2 to 1.8e11. The test allows
    # a relative error of 4 cond eps; the worst seen was 0.69 cond eps (the
    # mean at cond 2.8e2, 4.2e-14). At cond 1.8e11 the errors were mean
    # 7.3e-7, variance 2.9e-7 and evidence 1.3e-6.
    rng = np.random.default_rng(0)
    kernel = se_kernel([0.5, 0.5], 1.5)
    X = rng.uniform(0, 2, (24, 2))
    y = rng.standard_normal(24)
    X_star = np.vstack([rng.uniform(0, 2, (3, 2)), X[:2]])
    sigma2s = [1e-1, 1e-4, 1e-7, 1e-10]
    conds = []
    for sigma2, want in zip(sigma2s, exact_reference(kernel, X, y, sigma2s, X_star)):
        conds.append(np.linalg.cond(gram(kernel, X) + sigma2 * np.eye(24)))
        model = exact.fit(kernel, X, y, sigma2)
        assert model.factor.jitter == 0.0
        got = (exact.predict_mean(model, X_star), exact.predict_var(model, X_star), exact.log_evidence(model))
        bound = 4.0 * conds[-1] * np.finfo(float).eps
        for quantity, value, reference in zip(("mean", "variance", "evidence"), got, want):
            error = np.max(np.abs(value - reference)) / np.max(np.abs(reference))
            assert error <= bound, f"sigma2 {sigma2:.0e} {quantity}: relative error {error:.2e}"
    assert conds[0] < 1e3 and conds[-1] > 1e11
