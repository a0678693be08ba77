import tracemalloc

import numpy as np
import pytest

from kernelcg import exact, linalg
from kernelcg.datasets import TOY_DEFAULT_SIGMA2, gen_toy, toy_kernel
from kernelcg.kernels import _BLOCK_ENTRIES, gram, se_kernel
from kernelcg.lowrank import InducingFits
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
    # sums of (L^{-1} k(X, X*))^2, with L the RFP factor.
    kernel, X, y, sigma2 = _random_problem(8, 60)
    model = exact.fit(kernel, X, y, sigma2)
    X_star = np.random.default_rng(9).uniform(0, 2, (45, 2))
    half = model.factor.solve_lower(gram(kernel, X, X_star))
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
    # SoR on every training input, phi(x) = k(X, x) with Sigma = K, reproduces the exact predictor.
    kernel, X, y, sigma2 = _random_problem(12, 30)
    model = exact.fit(kernel, X, y, sigma2)
    rng = np.random.default_rng(13)
    X_star = rng.uniform(0, 2, (8, 2))
    a = exact.predict_mean(model, X_star)
    b, _, _ = InducingFits(kernel, X, y, sigma2, X, X_star).predict("sor")
    assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)


def test_fit_holds_no_n_by_n_temporary_beyond_gram_and_factor():
    # The factor is the Gram's own memory: one triangle of N(N+1)/2 floats
    # in RFP storage, assembled beside one block of _BLOCK_ENTRIES floats,
    # and a few N-vectors. The solves do not scan the factor for non-finite
    # entries, which once took N x N bytes more.
    kernel, X, y, sigma2 = _random_problem(7, 400)
    tracemalloc.start()
    try:
        model = exact.fit(kernel, X, y, sigma2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * 400 * 401 // 2 * 8 + _BLOCK_ENTRIES * 8
    assert model.factor.arf.shape == (400 * 401 // 2,)


def test_predict_var_holds_one_block_beyond_the_factor():
    # N = 800 and n* = 1000 make ten blocks of ceil(N / 8) = 100 test points:
    # each block of k(X, X*) is solved and squared in its own memory and
    # freed before the next, so only its finiteness check (a byte per
    # entry) and the output come on top of one block.
    kernel, X, y, sigma2 = _random_problem(15, 800)
    model = exact.fit(kernel, X, y, sigma2)
    X_star = np.random.default_rng(16).uniform(0, 2, (1000, 2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        exact.predict_var(model, X_star)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 800 * 100 * 8


def test_predict_var_is_blocked_over_test_points():
    # N = 300 and n* = 4000: blocks of ceil(N / 8) = 38 test points keep the
    # peak below a quarter of one N x n* array, and every variance is
    # bit-equal to one solve of the whole k(X, X*).
    kernel, X, y, sigma2 = _random_problem(13, 300)
    model = exact.fit(kernel, X, y, sigma2)
    X_star = np.random.default_rng(14).uniform(0, 2, (4000, 2))
    want = kernel.theta_f - linalg.chol_quad_diag(model.factor, gram(kernel, X, X_star))
    tracemalloc.start()
    try:
        got = exact.predict_var(model, X_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 4000 * 8 / 4
    assert np.array_equal(got, want)


def test_fit_and_predict_peak_at_one_factor_and_one_block_of_n_over_8_test_points():
    # n* = 600 > N / 8 = 50 test points: fit, predict_mean and predict_var
    # together hold the N(N+1)/2 floats of the RFP factor and one block at a
    # time, of the assembly (_BLOCK_ENTRIES floats) in fit and of k(X*, X)
    # (N x ceil(N / 8)) in prediction. The 64 KiB of slack covers the
    # block's finiteness check (a byte per entry, 20 kB here) and a few N-
    # and n*-vectors; the whole n* x N cross-Gram would add 1.9 MB.
    kernel, X, y, sigma2 = _random_problem(17, 400)
    X_star = np.random.default_rng(18).uniform(0, 2, (600, 2))
    tracemalloc.start()
    try:
        model = exact.fit(kernel, X, y, sigma2)
        exact.predict_mean(model, X_star)
        exact.predict_var(model, X_star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (400 * 401 // 2 + max(400 * 50, _BLOCK_ENTRIES)) * 8 + (64 << 10)


def test_mean_var_and_evidence_match_a_40_digit_reference():
    # N = 24, n* = 5 (three new points and two training inputs), noise swept
    # so that cond(K + sigma2 I) runs from 2.8e2 to 1.8e11. The test allows
    # a relative error of 4 cond eps; the worst seen was 0.19 cond eps (the
    # mean at cond 2.8e2, 1.2e-14). At cond 1.8e11 the errors were mean
    # 3.7e-7, variance 3.7e-7 and evidence 1.2e-6 (numpy 2.4.6, scipy
    # 1.17.1, OpenBLAS; the figures move with the BLAS build).
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


def test_fit_climbs_the_ladder_in_packed_storage(monkeypatch):
    # Rung 0's pftrf is made to report a failed first pivot: the fit
    # assembles K + sigma2 I again, factors it at rung 1 (1e-12 of the mean
    # diagonal), and its mean, variance and evidence are those of a
    # full-storage factor of K + sigma2 I at that jitter.
    kernel, X, y, sigma2 = _random_problem(19, 80)
    X_star = np.random.default_rng(20).uniform(0, 2, (30, 2))
    pftrf, calls = linalg.dpftrf, []

    def failing_first(n, arf, **kwargs):
        calls.append(n)
        return (arf, 1) if len(calls) == 1 else pftrf(n, arf, **kwargs)

    assemblies = []
    gram_lower = exact.gram_lower
    monkeypatch.setattr(linalg, "dpftrf", failing_first)
    monkeypatch.setattr(exact, "gram_lower", lambda *args: assemblies.append(1) or gram_lower(*args))
    model = exact.fit(kernel, X, y, sigma2)
    K = gram(kernel, X)
    K[np.diag_indices_from(K)] += sigma2
    jitter = float(np.mean(np.diag(K))) * linalg.JITTER_LADDER[0]
    assert (model.factor.jitter, len(calls), len(assemblies)) == (jitter, 2, 2)
    full = linalg.cholesky(K + jitter * np.eye(80), jitter_ladder=())
    alpha = linalg.chol_solve(full, y)
    want = (gram(kernel, X_star, X) @ alpha,
            kernel.theta_f - linalg.chol_quad_diag(full, gram(kernel, X, X_star)),
            -0.5 * y @ alpha - 0.5 * linalg.logdet(full) - 40 * np.log(2 * np.pi))
    got = (exact.predict_mean(model, X_star), exact.predict_var(model, X_star), exact.log_evidence(model))
    for value, reference in zip(got, want):
        assert np.max(np.abs(value - reference)) <= 1e-12 * np.max(np.abs(reference))
