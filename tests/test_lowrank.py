import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernelcg import exact, harness, linalg
from kernelcg.datasets import load_series_csv
from kernelcg.kernels import gram, se_kernel
from kernelcg.kmcg import kmcg_fit, kmcg_kernel_gram
from kernelcg.lowrank import (
    EigenExpansion,
    InducingFits,
    PbrFits,
    choose_inducing,
    se_eigen_expansion,
    sor_expansion,
)
from brute import gauss_solve, mvn_logpdf
from mpref import inducing_reference


def _problem(seed, n, d=2, lam=2.0, theta=1.5, sigma2=0.1):
    rng = np.random.default_rng(seed)
    kernel = se_kernel(np.full(d, lam), theta)
    X = rng.uniform(0, 2, (n, d))
    y = rng.standard_normal(n)
    return kernel, X, y, sigma2, rng


# --- fit / mean -----------------------------------------------------------


def test_complete_degeneracy_matches_exact_mean():
    kernel, X, y, sigma2, rng = _problem(0, 30)
    oracle = exact.fit(kernel, X, y, sigma2)
    X_star = rng.uniform(0, 2, (10, 2))
    mean, _, _ = InducingFits(kernel, X, y, sigma2, X, X_star).predict("sor")
    want = exact.predict_mean(oracle, X_star)
    assert np.linalg.norm(mean - want) <= 1e-8 * np.linalg.norm(want)


def test_zero_targets_zero_mean():
    kernel, X, _, sigma2, rng = _problem(2, 10)
    mean, _, _ = InducingFits(kernel, X, np.zeros(10), sigma2, X[:4], rng.uniform(0, 2, (5, 2))).predict("sor")
    assert np.array_equal(mean, np.zeros(5))


def test_sor_complete_inducing_equals_exact_mean():
    kernel, X, y, sigma2, rng = _problem(3, 25)
    oracle = exact.fit(kernel, X, y, sigma2)
    X_star = rng.uniform(0, 2, (8, 2))
    mean, _, _ = InducingFits(kernel, X, y, sigma2, X, X_star).predict("sor")
    want = exact.predict_mean(oracle, X_star)
    assert np.linalg.norm(mean - want) <= 1e-8 * np.linalg.norm(want)


# --- variance -------------------------------------------------------------


def test_far_field_variances():
    kernel, X, y, sigma2, _ = _problem(4, 20)
    fits = InducingFits(kernel, X, y, sigma2, X[:6], np.full((1, 2), 1e3))
    _, plain, _ = fits.predict("sor")
    assert abs(plain[0]) <= 1e-12
    _, dtc, _ = fits.predict("dtc")
    assert dtc[0] == pytest.approx(kernel.theta_f)


def test_complete_degeneracy_dtc_var_matches_exact():
    kernel, X, y, sigma2, rng = _problem(5, 30)
    oracle = exact.fit(kernel, X, y, sigma2)
    X_star = rng.uniform(0, 2, (9, 2))
    want = exact.predict_var(oracle, X_star)
    _, got, _ = InducingFits(kernel, X, y, sigma2, X, X_star).predict("dtc")
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_dtc_minus_plain_is_prior_defect():
    kernel, X, y, sigma2, rng = _problem(6, 25)
    X_U = X[choose_inducing(25, 8, seed=0)]
    expansion = sor_expansion(kernel, X_U)
    X_star = rng.uniform(0, 2, (12, 2))
    fits = InducingFits(kernel, X, y, sigma2, X_U, X_star)
    _, plain, _ = fits.predict("sor")
    _, dtc, _ = fits.predict("dtc")
    P = expansion.phi(X_star)
    k_hat = np.diag(P @ gauss_solve(expansion.Sigma, P.T))
    defect = kernel.theta_f - k_hat
    assert np.all(defect >= -1e-10)
    assert np.allclose(dtc - plain, defect, atol=1e-10)


# --- evidence ---------------------------------------------------------------


def test_complete_degeneracy_evidence():
    kernel, X, y, sigma2, _ = _problem(8, 30)
    oracle = exact.fit(kernel, X, y, sigma2)
    _, _, evidence = InducingFits(kernel, X, y, sigma2, X, X[:2]).predict("sor")
    assert evidence == pytest.approx(exact.log_evidence(oracle), rel=1e-8)


def test_evidence_matches_dense_density():
    kernel, X, y, sigma2, _ = _problem(9, 12)
    X_U = X[:3]
    expansion = sor_expansion(kernel, X_U)
    _, _, evidence = InducingFits(kernel, X, y, sigma2, X_U, X[:2]).predict("sor")
    Phi = expansion.phi(X).T
    cov = Phi.T @ gauss_solve(expansion.Sigma, Phi) + sigma2 * np.eye(12)
    assert evidence == pytest.approx(mvn_logpdf(y, cov), rel=1e-10)


def test_per_point_noise_matches_dense_model():
    # FITC's per-point noise Lam = theta_f - diag Q + sigma2: N(y; 0, Q + diag(Lam)).
    kernel, X, y, sigma2, rng = _problem(32, 12)
    expansion = sor_expansion(kernel, X[:4])
    Phi = expansion.phi(X).T
    Q = Phi.T @ gauss_solve(expansion.Sigma, Phi)
    cov = Q + np.diag(kernel.theta_f - np.diag(Q) + sigma2)
    X_star = rng.uniform(0, 2, (5, 2))
    P_star = expansion.phi(X_star)
    want = P_star @ gauss_solve(expansion.Sigma, Phi) @ gauss_solve(cov, y)
    mean, _, evidence = InducingFits(kernel, X, y, sigma2, X[:4], X_star).predict("fitc")
    assert np.allclose(mean, want, rtol=1e-10, atol=1e-12)
    assert evidence == pytest.approx(mvn_logpdf(y, cov), rel=1e-10)
    with pytest.raises(ValueError, match="y has 5 entries but X has 12 points"):
        InducingFits(kernel, X, y[:5], sigma2, X[:4], X_star).predict("fitc")


def test_evidence_zero_targets():
    kernel, X, _, sigma2, _ = _problem(10, 10)
    expansion = sor_expansion(kernel, X[:4])
    _, _, evidence = InducingFits(kernel, X, np.zeros(10), sigma2, X[:4], X[:2]).predict("sor")
    Phi = expansion.phi(X).T
    expected = (
        -0.5 * np.log(np.linalg.det(Phi @ Phi.T / sigma2 + expansion.Sigma))
        + 0.5 * np.log(np.linalg.det(expansion.Sigma))
        - 5.0 * np.log(2 * np.pi * sigma2)
    )
    assert evidence == pytest.approx(expected, rel=1e-10)


# --- subset of regressors ---------------------------------------------------


def test_sor_kernel_complete_set_reproduces_kernel():
    kernel, X, _, _, _ = _problem(11, 15)
    expansion = sor_expansion(kernel, X)
    P = expansion.phi(X)
    khat = P @ gauss_solve(expansion.Sigma, P.T)
    assert np.allclose(khat, gram(kernel, X), rtol=1e-8, atol=1e-10)


def test_sor_kernel_symmetric_psd():
    kernel, X, _, _, rng = _problem(12, 20)
    expansion = sor_expansion(kernel, X[:7])
    Zp = rng.uniform(0, 2, (20, 2))
    P = expansion.phi(Zp)
    K = P @ gauss_solve(expansion.Sigma, P.T)
    assert np.allclose(K, K.T, rtol=1e-12)
    assert np.min(np.linalg.eigvalsh(0.5 * (K + K.T))) >= -1e-10 * kernel.theta_f


def test_sor_single_inducing_point_rank_one():
    kernel, X, _, _, rng = _problem(13, 10)
    u = X[:1]
    expansion = sor_expansion(kernel, u)
    x, z = rng.uniform(0, 2, (2, 2))
    khat = (expansion.phi(x) @ gauss_solve(expansion.Sigma, expansion.phi(z).T)).item()
    expected = gram(kernel, x[None], u)[0, 0] * gram(kernel, u, z[None])[0, 0] / kernel.theta_f
    assert khat == pytest.approx(expected, rel=1e-12)


def test_rank_bound_of_approximate_gram():
    kernel, X, _, _, rng = _problem(14, 30)
    m = 6
    expansion = sor_expansion(kernel, X[:m])
    Zp = rng.uniform(0, 2, (25, 2))
    P = expansion.phi(Zp)
    K = P @ gauss_solve(expansion.Sigma, P.T)
    eigs = np.sort(np.linalg.eigvalsh(0.5 * (K + K.T)))[::-1]
    assert np.sum(eigs > 1e-10 * kernel.theta_f) <= m


# --- the posterior over the kernel of a kmcg fit, in projected form ----------


def test_inducing_posterior_variance_vanishes_on_observed_projections():
    # The posterior covariance of the kernel is the prior's with khat in
    # place of k, so contracted with S on both argument pairs it vanishes
    # where khat reproduces the observed projections S^T K_M S.
    kernel, X, y, sigma2, _ = _problem(17, 10, d=1, lam=1.0)
    for M in (None, 5):
        model = kmcg_fit(kernel, X, y, sigma2, M=M, eps=0.0, max_steps=4)
        assert model.steps == 4
        observed = model.S.T @ gram(kernel, model.X_M) @ model.S
        learned = model.S.T @ kmcg_kernel_gram(model, model.X_M) @ model.S
        assert np.max(np.abs(learned - observed)) <= 1e-10 * max(np.max(np.abs(observed)), 1.0)


def test_inducing_posterior_reduces_to_projected_kernel_form():
    # The learned kernel of a fit with inducing subset X_M and directions S
    # is k_x^T S (S^T K_M S)^{-1} S^T k_z.
    kernel, X, y, sigma2, rng = _problem(18, 18)
    model = kmcg_fit(kernel, X, y, sigma2, M=9, eps=0.0, max_steps=4)
    S, X_M = model.S, model.X_M
    A = rng.uniform(0, 2, (3, 2))
    B = rng.uniform(0, 2, (3, 2))
    middle = S @ gauss_solve(S.T @ gram(kernel, X_M) @ S, S.T)
    want = gram(kernel, A, X_M) @ middle @ gram(kernel, X_M, B)
    assert np.allclose(kmcg_kernel_gram(model, A, B), want, rtol=1e-9, atol=1e-11)


# --- eigenexpansions and the projected Bayes regressor ----------------------


def _trig_expansion(lams=(1.0, 0.5, 0.25)):
    def phi(X):
        x = np.atleast_2d(X)[:, 0]
        return np.column_stack([
            np.ones_like(x),
            np.sqrt(2.0) * np.cos(2 * np.pi * x),
            np.sqrt(2.0) * np.sin(2 * np.pi * x),
        ])

    return EigenExpansion(phi, np.asarray(lams))


def test_pbr_recovers_finite_rank_kernel_gp():
    expansion = _trig_expansion()
    rng = np.random.default_rng(19)
    X = rng.uniform(0, 1, (25, 1))
    y = rng.standard_normal(25)
    sigma2 = 0.05
    X_star = rng.uniform(0, 1, (10, 1))
    lam = np.diag(expansion.eigenvalues)
    K = expansion.phi(X) @ lam @ expansion.phi(X).T
    K_star = expansion.phi(X_star) @ lam @ expansion.phi(X).T
    want = K_star @ gauss_solve(K + sigma2 * np.eye(25), y)
    got = PbrFits(expansion, X, y, sigma2, X_star).predict(3)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


def test_pbr_rank_one_closed_form():
    expansion = _trig_expansion()
    rng = np.random.default_rng(20)
    X = rng.uniform(0, 1, (12, 1))
    y = rng.standard_normal(12)
    sigma2 = 0.1
    X_star = rng.uniform(0, 1, (4, 1))
    f1 = expansion.phi(X)[:, 0]
    lam1 = expansion.eigenvalues[0]
    expected = expansion.phi(X_star)[:, 0] * (f1 @ y) / (f1 @ f1 + sigma2 / lam1)
    assert np.allclose(PbrFits(expansion, X, y, sigma2, X_star).predict(1), expected, rtol=1e-10)


def test_pbr_every_rank_from_one_feature_pass(monkeypatch):
    # Each rank equals the exact GP with the kernel of its leading eigenpairs,
    # and every rank comes from one evaluation of each feature array and
    # one factorization.
    factored = []
    original = linalg.cholesky

    def counting(A, *args):
        factored.append(A.shape)
        return original(A, *args)

    monkeypatch.setattr(linalg, "cholesky", counting)
    expansion = _trig_expansion()
    rng = np.random.default_rng(33)
    X = rng.uniform(0, 1, (15, 1))
    y = rng.standard_normal(15)
    sigma2 = 0.05
    X_star = rng.uniform(0, 1, (6, 1))
    phi = mock.Mock(wraps=expansion.phi)
    fits = PbrFits(dataclasses.replace(expansion, phi=phi), X, y, sigma2, X_star)
    for count in (3, 1, 2):
        F, F_star = expansion.phi(X)[:, :count], expansion.phi(X_star)[:, :count]
        lam = np.diag(expansion.eigenvalues[:count])
        want = F_star @ lam @ F.T @ gauss_solve(F @ lam @ F.T + sigma2 * np.eye(15), y)
        assert np.allclose(fits.predict(count), want, rtol=1e-10, atol=1e-12)
    assert phi.call_count == 2
    assert factored == [(3, 3)]


def test_pbr_rejects_a_count_outside_one_to_rank():
    rng = np.random.default_rng(34)
    X = rng.uniform(0, 1, (8, 1))
    fits = PbrFits(_trig_expansion(), X, rng.standard_normal(8), 0.1, X[:2])
    for count in (0, 4):
        with pytest.raises(ValueError, match=r"count must be in \[1, 3\]"):
            fits.predict(count)
    assert fits.predict(3).shape == (2,)


def test_pbr_eigenvalue_scaling_consistency():
    rng = np.random.default_rng(21)
    X = rng.uniform(0, 1, (15, 1))
    y = rng.standard_normal(15)
    sigma2 = 0.05
    X_star = rng.uniform(0, 1, (6, 1))
    c = 3.0
    scaled = _trig_expansion(lams=(c * 1.0, c * 0.5, c * 0.25))
    lam = np.diag(scaled.eigenvalues)
    K = scaled.phi(X) @ lam @ scaled.phi(X).T
    K_star = scaled.phi(X_star) @ lam @ scaled.phi(X).T
    want = K_star @ gauss_solve(K + sigma2 * np.eye(15), y)
    assert np.allclose(PbrFits(scaled, X, y, sigma2, X_star).predict(3), want, rtol=1e-8)


def test_eigen_expansion_rejects_bad_inputs():
    phi = lambda X: np.ones((np.atleast_2d(X).shape[0], 1))
    with pytest.raises(ValueError, match="positive"):
        EigenExpansion(phi, [-1.0])
    with pytest.raises(ValueError, match="descending"):
        EigenExpansion(phi, [0.5, 1.0])


def test_se_eigen_expansion_is_eigen_system():
    # Quadrature check of the eigen property integral against a fine grid.
    kernel = se_kernel([2.0], 1.4)
    expansion = se_eigen_expansion(kernel, [0.2], [0.8], 6)
    zs = np.linspace(-6, 6, 4001).reshape(-1, 1) * 0.8 + 0.2
    weights = np.exp(-0.5 * ((zs[:, 0] - 0.2) / 0.8) ** 2) / (0.8 * np.sqrt(2 * np.pi))
    dz = zs[1, 0] - zs[0, 0]
    F = expansion.phi(zs)
    xs = np.array([[-0.5], [0.2], [1.1]])
    K = gram(kernel, xs, zs)
    lhs = (K * weights) @ F * dz  # integral k(x, z) phi_j(z) nu(z) dz
    rhs = expansion.phi(xs) * expansion.eigenvalues
    assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-8)


def test_se_eigen_expansion_multidim_product():
    kernel = se_kernel([1.0, 3.0], 2.0)
    expansion = se_eigen_expansion(kernel, [0.0, 1.0], [1.0, 0.5], 10)
    lams = expansion.eigenvalues
    assert np.all(np.diff(lams) <= 1e-15)
    rng = np.random.default_rng(22)
    F = expansion.phi(rng.standard_normal((5, 2)))
    assert F.shape == (5, 10)


def test_se_eigen_expansion_rejects_a_count_below_one():
    with pytest.raises(ValueError, match="count >= 1 eigenpairs, got 0"):
        se_eigen_expansion(se_kernel([1.0], 1.0), [0.0], [1.0], 0)


@pytest.mark.parametrize("metric", [0.25, 4.0, 16.0, 100.0])
def test_se_eigen_expansion_passes_its_check_up_to_the_order_cap(metric):
    # In the scaled coordinate the Gauss-Hermite rule is exact, so valid
    # expansions pass at every lengthscale; a rule that also had to
    # integrate the envelope rejected them at the larger metrics.
    expansion = se_eigen_expansion(se_kernel([metric], 2.0), [0.4], [0.3], 127)
    assert expansion.eigenvalues.size == 127
    with pytest.raises(ValueError, match="per-dimension cap"):
        se_eigen_expansion(se_kernel([metric], 2.0), [0.4], [0.3], 129)


def test_se_eigen_orthonormality_check_catches_a_defect_of_one_in_a_million(monkeypatch):
    original = np.polynomial.hermite.hermgauss

    def perturbed(n):
        nodes, weights = original(n)
        return nodes, weights * (1.0 + 1e-6)

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", perturbed)
    with pytest.raises(ValueError, match="fail quadrature orthonormality: 1e-06"):
        se_eigen_expansion(se_kernel([2.0], 1.0), [0.0], [1.0], 8)


def test_se_eigen_features_vanish_far_from_the_base_density():
    # 1000 sds out the envelope underflows to zero while H_126(t) is beyond
    # float range; the recurrence carries the zero through every order.
    expansion = se_eigen_expansion(se_kernel([4.0], 2.0), [0.5], [0.3], 127)
    F = expansion.phi(np.array([[0.5 - 300.0], [0.5], [0.5 + 300.0]]))
    assert np.all(np.isfinite(F))
    assert np.all(F[[0, 2]] == 0.0) and F[1, 0] > 0.0


# --- FITC / VFE --------------------------------------------------------------


def test_fitc_complete_inducing_equals_exact():
    kernel, X, y, sigma2, rng = _problem(23, 20)
    oracle = exact.fit(kernel, X, y, sigma2)
    X_star = rng.uniform(0, 2, (7, 2))
    mean, var, evidence = InducingFits(kernel, X, y, sigma2, X, X_star).predict("fitc")
    assert np.allclose(mean, exact.predict_mean(oracle, X_star), rtol=1e-8, atol=1e-10)
    assert np.allclose(var, exact.predict_var(oracle, X_star), rtol=1e-8, atol=1e-8)
    assert evidence == pytest.approx(exact.log_evidence(oracle), rel=1e-8)


def test_fitc_prior_train_diagonal_exact():
    kernel, X, _, sigma2, _ = _problem(24, 15)
    X_U = X[:5]
    K_mm = gram(kernel, X_U)
    K_mn = gram(kernel, X_U, X)
    Q = K_mn.T @ gauss_solve(K_mm, K_mn)
    implied_diag = np.diag(Q) + (kernel.theta_f - np.diag(Q))
    assert np.allclose(implied_diag, np.full(15, kernel.theta_f))


def test_fitc_single_inducing_evidence_vs_density():
    kernel, X, y, sigma2, _ = _problem(25, 10)
    X_U = X[:1]
    _, _, evidence = InducingFits(kernel, X, y, sigma2, X_U, X[:2]).predict("fitc")
    K_mm = gram(kernel, X_U)
    K_mn = gram(kernel, X_U, X)
    Q = K_mn.T @ gauss_solve(K_mm, K_mn)
    cov = Q + np.diag(kernel.theta_f - np.diag(Q)) + sigma2 * np.eye(10)
    assert evidence == pytest.approx(mvn_logpdf(y, cov), rel=1e-8)


def test_vfe_complete_inducing_exact_evidence():
    kernel, X, y, sigma2, _ = _problem(26, 20)
    oracle = exact.fit(kernel, X, y, sigma2)
    _, _, evidence = InducingFits(kernel, X, y, sigma2, X, X[:3]).predict("vfe")
    assert evidence == pytest.approx(exact.log_evidence(oracle), rel=1e-8)


def test_vfe_evidence_lower_bound():
    for seed in range(5):
        kernel, X, y, sigma2, _ = _problem(27 + seed, 30)
        oracle = exact.fit(kernel, X, y, sigma2)
        X_U = X[choose_inducing(30, 8, seed=seed)]
        fits = InducingFits(kernel, X, y, sigma2, X_U, X[:2])
        _, _, evidence = fits.predict("vfe")
        assert evidence <= exact.log_evidence(oracle) + 1e-9
        # trace correction is nonnegative: VFE evidence <= DTC evidence
        _, _, dtc_ev = fits.predict("dtc")
        assert evidence <= dtc_ev + 1e-12


def _brute_inducing_cov(kernel, X, sigma2, X_U, X_star, method):
    """K_** - Q_*n (Q_nn + Lam)^{-1} Q_n*, the N x N form of the DTC/FITC
    predictive covariance (Q_** in place of K_** for SoR), by Gaussian
    elimination."""
    n = X.shape[0]
    K_un = gram(kernel, X_U, X)
    K_us = gram(kernel, X_U, X_star)
    W = gauss_solve(gram(kernel, X_U), np.hstack([K_un, K_us]))
    Q_nn = K_un.T @ W[:, :n]
    Q_sn = K_us.T @ W[:, :n]
    lam = np.full(n, sigma2)
    if method == "fitc":
        lam = lam + kernel.theta_f - np.diag(Q_nn)
    prior = K_us.T @ W[:, n:] if method == "sor" else gram(kernel, X_star)
    return prior - Q_sn @ gauss_solve(Q_nn + np.diag(lam), Q_sn.T)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(5, 30), st.integers(1, 12), st.floats(-2.0, 0.0))
def test_inducing_baseline_variances_match_brute_force_covariance(seed, n, m, log_sigma2):
    kernel, X, y, _, rng = _problem(seed, n)
    sigma2 = 10.0**log_sigma2
    X_U = X[choose_inducing(n, min(m, n), seed=seed)]
    X_star = np.vstack([rng.uniform(0, 2, (8, 2)), X[:2]])
    sor, dtc, fitc = (np.diag(_brute_inducing_cov(kernel, X, sigma2, X_U, X_star, method))
                      for method in ("sor", "dtc", "fitc"))
    fits = InducingFits(kernel, X, y, sigma2, X_U, X_star)
    for method, want in (("sor", sor), ("dtc", dtc), ("vfe", dtc), ("fitc", fitc)):
        _, var, _ = fits.predict(method)
        assert var.shape == (10,)
        assert np.allclose(var, want, rtol=0.0, atol=1e-9 * kernel.theta_f)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(5, 30), st.integers(1, 12))
def test_lowrank_pointwise_variance_is_the_covariance_diagonal(seed, n, m):
    # The diagonal of the covariance phi* A^{-1} phi*^T, A = Phi Phi^T / sigma2 + Sigma
    # factored as the fit factors it.
    kernel, X, y, sigma2, rng = _problem(seed, n)
    X_U = X[choose_inducing(n, min(m, n), seed=seed)]
    X_star = np.vstack([rng.uniform(0, 2, (8, 2)), X[:2], np.full((1, 2), 1e3)])
    _, got, _ = InducingFits(kernel, X, y, sigma2, X_U, X_star).predict("sor")
    assert got.shape == (11,)
    expansion = sor_expansion(kernel, X_U)
    Phi = expansion.phi(X).T
    A = Phi @ Phi.T / sigma2 + expansion.Sigma
    P_star = expansion.phi(X_star)
    cov = P_star @ linalg.chol_solve(linalg.cholesky(0.5 * (A + A.T)), P_star.T)
    assert np.allclose(got, np.diag(cov), rtol=0.0, atol=1e-12 * kernel.theta_f)


def _worst_relative(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


# (metric entry, seed, subset) -> cond(K_UU) on 8 of 30 points in [0, 2]^2.
# Worst relative error seen, at cond 1.1e5: 2.8e-9 (sor/dtc/vfe mean),
# 2.2e-9 (sor variance), 1.2e-9 (dtc/vfe variance), 9.7e-10 (fitc mean),
# 1.8e-10 (evidence); at cond <= 5.2e4 at most 2.7e-10.
@pytest.mark.parametrize("lam, seed, subset, cond", [
    (4.0, 1, [0, 4, 10, 12, 18, 23, 24, 28], 1.5e1),
    (2.0, 6, [8, 10, 11, 12, 19, 24, 25, 27], 4.1e2),
    (2.0, 2, [2, 6, 7, 11, 13, 19, 22, 29], 5.2e4),
    (0.5, 3, [2, 4, 6, 17, 18, 22, 25, 26], 1.1e5),
])
def test_inducing_baselines_match_a_40_digit_reference(lam, seed, subset, cond):
    rng = np.random.default_rng(seed)
    kernel = se_kernel([lam, lam], 1.5)
    X = rng.uniform(0, 2, (30, 2))
    y = rng.standard_normal(30)
    X_U = X[subset]
    X_star = np.vstack([rng.uniform(0, 2, (3, 2)), X[:2]])
    sigma2 = 1e-2
    assert np.linalg.cond(gram(kernel, X_U)) == pytest.approx(cond, rel=0.1)
    fits = InducingFits(kernel, X, y, sigma2, X_U, X_star)
    got = {method: fits.predict(method) for method in ("sor", "dtc", "vfe", "fitc")}
    for method, want in inducing_reference(kernel, X, y, sigma2, X_U, X_star).items():
        for quantity, value, reference in zip(("mean", "variance", "evidence"), got[method], want):
            error = _worst_relative(value, reference)
            assert error <= 1e-8, f"{method} {quantity}: relative error {error:.2e}"


def test_choose_inducing_contract():
    idx = choose_inducing(10, 10, seed=0)
    assert np.array_equal(idx, np.arange(10))
    a = choose_inducing(100, 12, seed=5)
    b = choose_inducing(100, 12, seed=5)
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == 12
    # Nested: a smaller draw with the same seed is the larger one's prefix,
    # in the permutation's order.
    assert np.array_equal(choose_inducing(100, 5, seed=5), a[:5])
    assert np.array_equal(choose_inducing(100, 99, seed=np.random.default_rng(5))[:12], a)
    assert np.array_equal(a, np.random.default_rng(5).permutation(100)[:12])
    with pytest.raises(ValueError):
        choose_inducing(5, 6, seed=0)


def test_nystrom_gap_and_defect_are_clamped_on_every_shipped_series_subset(tmp_path):
    # The 80-point series of test_cli::test_shipped_series_config_runs and
    # every inducing subset of demos/series_config_example.ini's schedule:
    # every prefix of every repetition's permutation. Many of these K_UU
    # are numerically singular, and potrf accepts some of them at rung 0:
    # unclamped, the gap theta_f - diag Q fell to -0.34 (-4.1e-7 on numpy's
    # potrf), which turned FITC's Lam negative and lifted VFE's bound above
    # DTC's evidence.
    rng = np.random.default_rng(5)
    values = np.sin(0.1 * np.arange(80)) + 0.03 * rng.standard_normal(80)
    mask = (np.arange(80) % 4 != 1).astype(int)
    rows = ["time,value,mask"] + [f"{float(i)},{values[i]:.17g},{mask[i]}" for i in range(80)]
    (tmp_path / "series.csv").write_text("\n".join(rows) + "\n")
    data = load_series_csv(tmp_path / "series.csv")
    config = harness.ExperimentConfig(se_kernel([0.01], 1.0), 0.001, steps=tuple(range(1, 21)),
                                      repetitions=10, master_seed=12345, inducing_cap=500)
    largest = harness.budget_for(config, data.n_train, config.steps[-1])
    for rep in range(config.repetitions):
        X_U = data.X[harness._inducing_seed(config, rep).permutation(data.n_train)[:largest]]
        fits = InducingFits(config.kernel, data.X, data.y, config.sigma2, X_U, data.X_star)
        for m in range(1, largest + 1):
            mean, var, evidence = fits.predict("fitc", m)
            assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var)) and np.isfinite(evidence)
            assert fits.predict("vfe", m)[2] <= fits.predict("dtc", m)[2]
        assert np.all(fits._gaps >= 0.0) and np.all(fits._defects >= 0.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(5, 30), st.integers(1, 12), st.floats(-2.0, 0.0),
       st.sampled_from([0.5, 2.0, 8.0]))
def test_every_count_is_the_fit_on_its_prefix(seed, n, m, log_sigma2, lam):
    # Drawn where the largest K_UU factors at rung 0, so a prefix fitted
    # alone takes rung 0 too and the two agree to rounding.
    kernel, X, y, _, rng = _problem(seed, n, lam=lam)
    sigma2 = 10.0**log_sigma2
    X_U = X[choose_inducing(n, min(m, n), seed=seed)]
    assume(linalg.cholesky(gram(kernel, X_U)).jitter == 0.0)
    X_star = np.vstack([rng.uniform(0, 2, (6, 2)), X[:2]])
    fits = InducingFits(kernel, X, y, sigma2, X_U, X_star)
    for count in range(1, len(X_U) + 1):
        got = {method: fits.predict(method, count) for method in ("sor", "dtc", "fitc", "vfe")}
        for method, values in got.items():
            want = InducingFits(kernel, X, y, sigma2, X_U[:count], X_star).predict(method)
            for quantity, value, reference in zip(("mean", "variance", "evidence"), values, want):
                error = _worst_relative(value, reference)
                assert error <= 1e-8, f"{method} {quantity} at count {count}: relative error {error:.2e}"
        assert np.all(fits._gaps[count - 1] >= 0.0) and np.all(fits._defects[count - 1] >= 0.0)
        assert got["vfe"][2] <= got["dtc"][2]
    assert fits.predict("sor")[2] == got["sor"][2]


def test_predict_rejects_a_count_outside_one_to_m():
    kernel, X, y, sigma2, _ = _problem(35, 10)
    fits = InducingFits(kernel, X, y, sigma2, X[:4], X[:2])
    for count in (0, 5):
        with pytest.raises(ValueError, match=r"count must be in \[1, 4\]"):
            fits.predict("fitc", count)
    with pytest.raises(ValueError, match="unknown inducing baseline 'pbr'"):
        fits.predict("pbr")


def test_nested_fit_memory_at_the_harness_shape():
    # N 1500, n* 500, M 123 as in the harness-dense benchmark: every count of
    # every method holds what the InducingFits docstring states, 3 M N +
    # 6 M n* + M^2 floats at most (8.4 MB; 7.5 MB seen), below one N x N
    # array (18 MB).
    rng = np.random.default_rng(36)
    n, n_star, m = 1500, 500, 123
    kernel = se_kernel(np.full(4, 2.0), 1.5)
    X = rng.uniform(0, 2, (n, 4))
    fits = InducingFits(kernel, X, rng.standard_normal(n), 0.1, X[:m], rng.uniform(0, 2, (n_star, 4)))
    tracemalloc.start()
    try:
        for count in (m, 1, 60):
            for method in ("sor", "dtc", "fitc", "vfe"):
                fits.predict(method, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (3 * m * n + 6 * m * n_star) + (1 << 20)
