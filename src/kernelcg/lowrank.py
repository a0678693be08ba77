"""Finite-rank kernel approximations and the inducing-point baselines.

A rank-M kernel has the form k(x, z) ~= phi(x)^T Sigma^{-1} phi(z). Given
such an expansion, GP mean, covariance and evidence reduce from O(N^3) to
O(N M^2) through the matrix-inversion and matrix-determinant lemmas:

    mean(x*)   = phi(x*)^T (Phi Phi^T + sigma2 Sigma)^{-1} Phi y
    cov(x*,z*) = sigma2 phi(x*)^T (Phi Phi^T + sigma2 Sigma)^{-1} phi(z*)
    evidence   = -(1/2 sigma2) (y^T y - y^T Phi^T (Phi Phi^T + sigma2 Sigma)^{-1} Phi y)
                 - 1/2 ln|Phi Phi^T / sigma2 + Sigma| + 1/2 ln|Sigma|
                 - N/2 ln(2 pi sigma2)

with Phi_ij = phi_i(X_j). The covariance comes in two flavours: "plain"
(which decays to zero far from the data) and "dtc", which restores the exact
kernel for the prior term:

    cov_dtc(x*,z*) = k(x*,z*) - phi(x*)^T Sigma^{-1} phi(z*) + cov_plain(x*,z*)

:func:`lowrank_var` returns the covariance, :func:`lowrank_var_diag` only its
diagonal (the pointwise variance) without forming it. The DTC, FITC and VFE
baselines return pointwise variances.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .kernels import SQUARED_EXPONENTIAL, Kernel, _as_points, gram


def choose_inducing(n_total: int, m: int, seed) -> np.ndarray:
    """Uniformly sample m inducing indices out of n_total without replacement.

    Shared by every inducing-point method so that equal seeds select equal
    subsets across methods.
    """
    if not (1 <= m <= n_total):
        raise ValueError(f"need 1 <= m <= {n_total}, got {m}")
    if m == n_total:
        return np.arange(n_total)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return np.sort(rng.choice(n_total, size=m, replace=False))


@dataclass(frozen=True)
class FeatureExpansion:
    """Feature map phi (points -> n x M array) with inner matrix Sigma.

    ``prior_kernel`` is the exact kernel the expansion approximates; it is
    required for the dtc covariance mode and set automatically by
    :func:`sor_expansion`.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    Sigma: np.ndarray
    prior_kernel: Optional[Kernel] = None

    @property
    def rank(self) -> int:
        return self.Sigma.shape[0]


def sor_expansion(kernel: Kernel, X_U) -> FeatureExpansion:
    """Subset-of-regressors expansion: phi(x) = k(X_U, x), Sigma = k(X_U, X_U).

    The induced kernel is k(x, X_U) K_UU^{-1} k(X_U, z).
    """
    X_U = _as_points(X_U, kernel.dim)
    Sigma = gram(kernel, X_U)
    linalg.cholesky(Sigma)  # fail early if K_UU is not factorizable
    return FeatureExpansion(
        phi=lambda Xq: gram(kernel, _as_points(Xq, kernel.dim), X_U),
        Sigma=Sigma,
        prior_kernel=kernel,
    )


@dataclass(frozen=True)
class LowRankModel:
    expansion: FeatureExpansion
    Phi: np.ndarray  # M x N design matrix
    y: np.ndarray
    sigma2: float
    factor: linalg.CholeskyFactor  # chol(Phi Phi^T + sigma2 Sigma)
    sigma_factor: linalg.CholeskyFactor  # chol(Sigma)
    weights: np.ndarray  # (Phi Phi^T + sigma2 Sigma)^{-1} Phi y


def lowrank_fit(expansion: FeatureExpansion, X, y, sigma2: float) -> LowRankModel:
    """Assemble the design matrix and factorize Phi Phi^T + sigma2 Sigma."""
    if not (sigma2 > 0.0):
        raise ValueError("sigma2 must be positive")
    y = np.asarray(y, dtype=float).reshape(-1)
    Phi = np.asarray(expansion.phi(X), dtype=float).T
    if Phi.shape != (expansion.rank, y.size):
        raise ValueError(f"feature map produced shape {Phi.T.shape}, expected ({y.size}, {expansion.rank})")
    A = Phi @ Phi.T + sigma2 * expansion.Sigma
    factor = linalg.cholesky(0.5 * (A + A.T))
    sigma_factor = linalg.cholesky(expansion.Sigma)
    weights = linalg.chol_solve(factor, Phi @ y)
    return LowRankModel(
        expansion=expansion,
        Phi=Phi,
        y=y,
        sigma2=float(sigma2),
        factor=factor,
        sigma_factor=sigma_factor,
        weights=weights,
    )


def lowrank_mean(model: LowRankModel, X_star) -> np.ndarray:
    return np.asarray(model.expansion.phi(X_star), dtype=float) @ model.weights


def lowrank_var(
    model: LowRankModel,
    X_star,
    X_star2=None,
    mode: str = "plain",
) -> np.ndarray:
    """Predictive covariance in plain or dtc mode.

    plain: sigma2 phi* (Phi Phi^T + sigma2 Sigma)^{-1} phi**
    dtc:   k(x*,x**) - phi* Sigma^{-1} phi** + plain
    """
    if mode not in ("plain", "dtc"):
        raise ValueError(f"unknown variance mode {mode!r}")
    P_star = np.asarray(model.expansion.phi(X_star), dtype=float)
    P_star2 = P_star if X_star2 is None else np.asarray(model.expansion.phi(X_star2), dtype=float)
    plain = model.sigma2 * (P_star @ linalg.chol_solve(model.factor, P_star2.T))
    if mode == "plain":
        return plain
    kernel = model.expansion.prior_kernel
    if kernel is None:
        raise ValueError("dtc mode requires an expansion with a prior_kernel")
    X_star2 = X_star if X_star2 is None else X_star2
    K_ss = gram(kernel, _as_points(X_star, kernel.dim), _as_points(X_star2, kernel.dim))
    approx_prior = P_star @ linalg.chol_solve(model.sigma_factor, P_star2.T)
    return K_ss - approx_prior + plain


def lowrank_var_diag(model: LowRankModel, X_star, mode: str = "plain") -> np.ndarray:
    """Pointwise predictive variance, the diagonal of :func:`lowrank_var`.

    plain: sigma2 phi* (Phi Phi^T + sigma2 Sigma)^{-1} phi*
    dtc:   theta_f - phi* Sigma^{-1} phi* + plain, with theta_f = k(x*, x*)
           of the prior kernel (every stationary kernel here)

    Costs O(n* M^2) flops and O(n* M) memory: the n* x M features and two
    arrays of their size; no n* x n* array.
    """
    if mode not in ("plain", "dtc"):
        raise ValueError(f"unknown variance mode {mode!r}")
    P_star_t = np.asarray(model.expansion.phi(X_star), dtype=float).T
    plain = model.sigma2 * linalg.chol_quad_diag(model.factor, P_star_t)
    if mode == "plain":
        return plain
    kernel = model.expansion.prior_kernel
    if kernel is None:
        raise ValueError("dtc mode requires an expansion with a prior_kernel")
    prior = np.full(P_star_t.shape[1], kernel.theta_f)
    return prior - linalg.chol_quad_diag(model.sigma_factor, P_star_t) + plain


def lowrank_evidence(model: LowRankModel) -> float:
    """Log evidence of the degenerate model N(y; 0, Phi^T Sigma^{-1} Phi + sigma2 I)."""
    n = model.y.size
    m = model.expansion.rank
    quad = float(model.y @ model.y - (model.Phi @ model.y) @ model.weights)
    logdet_bracket = linalg.logdet(model.factor) - m * np.log(model.sigma2)
    return float(
        -0.5 * quad / model.sigma2
        - 0.5 * logdet_bracket
        + 0.5 * linalg.logdet(model.sigma_factor)
        - 0.5 * n * np.log(2.0 * np.pi * model.sigma2)
    )


# ---------------------------------------------------------------------------
# General inducing posterior over the kernel itself.


@dataclass(frozen=True)
class InducingPosterior:
    """Gaussian posterior over a bivariate function after projected observations.

    The prior has mean mu0 and covariance generated by w through
    cov(k(a,b), k(c,d)) = 1/2 w(a,c) w(b,d) + 1/2 w(a,d) w(b,c); observations
    are the projected Gram values S^T k(X_U, X_U) S of the data kernel.
    """

    kernel: Kernel
    w: Kernel
    X_U: np.ndarray
    S: np.ndarray
    mu0: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]
    _mid: np.ndarray  # S (S^T W_M S)^{-1} [S^T K_M S - S^T mu0 S] (S^T W_M S)^{-1} S^T
    _proj: np.ndarray  # S (S^T W_M S)^{-1} S^T

    def mean(self, A, B) -> np.ndarray:
        A = _as_points(A, self.kernel.dim)
        B = _as_points(B, self.kernel.dim)
        wa = gram(self.w, A, self.X_U)
        wb = gram(self.w, self.X_U, B)
        out = wa @ self._mid @ wb
        if self.mu0 is not None:
            out = out + self.mu0(A, B)
        return out

    def var(self, a, b, c, d) -> float:
        pts = [_as_points(p, self.kernel.dim) for p in (a, b, c, d)]
        w_of = lambda p, q: float(gram(self.w, p, q)[0, 0])
        g_of = lambda p, q: float((gram(self.w, p, self.X_U) @ self._proj @ gram(self.w, self.X_U, q))[0, 0])
        a, b, c, d = pts
        return 0.5 * (
            w_of(a, c) * w_of(b, d)
            + w_of(a, d) * w_of(b, c)
            - g_of(a, c) * g_of(b, d)
            - g_of(a, d) * g_of(b, c)
        )


def general_inducing_posterior(kernel: Kernel, X_U, S, mu0=None, w: Optional[Kernel] = None) -> InducingPosterior:
    """Posterior over the kernel given projected Gram observations S^T K_M S.

    S must have full column rank. mu0 is either None (zero prior mean) or a
    callable (A, B) -> matrix of prior-mean evaluations. The covariance
    generator w defaults to the data kernel itself; with mu0 = 0 and S = I the
    posterior mean is exactly the subset-of-regressors kernel.
    """
    w = kernel if w is None else w
    X_U = _as_points(X_U, kernel.dim)
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != X_U.shape[0]:
        raise ValueError(f"S must be M x P with M = {X_U.shape[0]}, got {S.shape}")
    W_M = gram(w, X_U)
    G = S.T @ W_M @ S
    factor = linalg.cholesky(0.5 * (G + G.T), jitter_ladder=())
    half = linalg.chol_solve(factor, S.T)  # (S^T W_M S)^{-1} S^T
    K_M = gram(kernel, X_U)
    observed = S.T @ K_M @ S
    if mu0 is not None:
        observed = observed - S.T @ mu0(X_U, X_U) @ S
    # S (S^T W_M S)^{-1} [S^T (K_M - mu0) S] (S^T W_M S)^{-1} S^T
    mid = half.T @ observed @ half
    proj = S @ half
    return InducingPosterior(kernel=kernel, w=w, X_U=X_U, S=S, mu0=mu0, _mid=mid, _proj=proj)


# ---------------------------------------------------------------------------
# Eigenfunction expansions and the projected Bayes regressor.


@dataclass(frozen=True)
class EigenExpansion:
    """Orthonormal eigenpairs of a kernel with respect to a base density.

    ``phi`` maps an (n, D) point array to the (n, P) matrix of eigenfunction
    values; ``eigenvalues`` are positive and sorted descending;
    ``sample_base`` draws points from the base density (used for the
    construction-time orthonormality check and available to callers).
    """

    phi: Callable[[np.ndarray], np.ndarray]
    eigenvalues: np.ndarray
    sample_base: Callable[[np.random.Generator, int], np.ndarray]


def eigen_expansion(
    phi,
    eigenvalues,
    sample_base,
    rng=None,
    check_draws: int = 100_000,
    check_tol: float = 5e-2,
) -> EigenExpansion:
    """Validated constructor for :class:`EigenExpansion`.

    Orthonormality is checked by Monte Carlo against the base density. This
    is a sanity gate with a wide tolerance, not a proof.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("eigenvalues must be positive")
    if np.any(np.diff(lam) > 0.0):
        raise ValueError("eigenvalues must be sorted descending")
    if check_draws:
        rng = np.random.default_rng(0) if rng is None else rng
        draws = sample_base(rng, check_draws)
        F = np.asarray(phi(draws), dtype=float)
        gram_mc = F.T @ F / check_draws
        defect = np.max(np.abs(gram_mc - np.eye(lam.size)))
        if defect > check_tol:
            raise ValueError(
                f"eigenfunctions fail the Monte-Carlo orthonormality check: defect {defect:.3g} > {check_tol}"
            )
    return EigenExpansion(phi=phi, eigenvalues=lam, sample_base=sample_base)


def truncate_expansion(expansion: EigenExpansion, count: int) -> EigenExpansion:
    """Keep the leading `count` eigenpairs (no re-validation needed)."""
    if not (1 <= count <= expansion.eigenvalues.size):
        raise ValueError(f"count must be in [1, {expansion.eigenvalues.size}]")
    phi_full = expansion.phi
    return EigenExpansion(
        phi=lambda X: np.asarray(phi_full(X), dtype=float)[:, :count],
        eigenvalues=expansion.eigenvalues[:count],
        sample_base=expansion.sample_base,
    )


def pbr_predict(expansion: EigenExpansion, X, y, sigma2: float, X_star) -> np.ndarray:
    """Projected Bayes regressor prediction phi* (Phi Phi^T + sigma2 Lam^{-1})^{-1} Phi y.

    This is the low-rank machinery with the induced kernel
    phi(x)^T Lam phi(z), i.e. Sigma = Lam^{-1}.
    """
    feat = FeatureExpansion(phi=expansion.phi, Sigma=np.diag(1.0 / expansion.eigenvalues))
    model = lowrank_fit(feat, X, y, sigma2)
    return lowrank_mean(model, X_star)


def se_eigen_expansion(kernel: Kernel, measure_means, measure_sds, count: int) -> EigenExpansion:
    """Analytic eigenexpansion of the ARD squared-exponential kernel with
    respect to an axis-aligned Gaussian base density.

    Per dimension, with a = 1/(4 s^2), b = lam/2, c = sqrt(a^2 + 2 a b),
    A = a + b + c and B = b/A, the eigenvalues are sqrt(2a/A) B^k and the
    eigenfunctions are scaled Hermite functions exp(-(c-a) u^2) H_k(sqrt(2c) u)
    of the centered coordinate u. Multi-dimensional eigenpairs are products;
    the `count` largest products are enumerated lazily.
    """
    if kernel.family != SQUARED_EXPONENTIAL:
        raise ValueError("analytic eigenexpansion is only available for the squared-exponential family")
    means = np.broadcast_to(np.asarray(measure_means, dtype=float), (kernel.dim,)).copy()
    sds = np.broadcast_to(np.asarray(measure_sds, dtype=float), (kernel.dim,)).copy()
    if np.any(sds <= 0.0):
        raise ValueError("measure standard deviations must be positive")

    a = 1.0 / (4.0 * sds**2)
    b = kernel.lam / 2.0
    c = np.sqrt(a**2 + 2.0 * a * b)
    big_a = a + b + c
    ratio = b / big_a  # geometric decay factor per dimension, < 1
    lead = np.sqrt(2.0 * a / big_a)

    max_order = 128  # per-dimension cap; far beyond any desk-scale rank

    def quadrature_defect(d: int, orders: np.ndarray) -> float:
        """Orthonormality defect by Gauss-Hermite quadrature (exact here)."""
        nodes, weights = np.polynomial.hermite.hermgauss(2 * int(orders.max()) + 60)
        x = means[d] + np.sqrt(2.0) * sds[d] * nodes
        F = one_dim_values(d, orders, x)
        G = (F * (weights / np.sqrt(np.pi))[:, None]).T @ F
        return float(np.max(np.abs(G - np.eye(orders.size))))

    def one_dim_values(d: int, orders: np.ndarray, x: np.ndarray) -> np.ndarray:
        u = x - means[d]
        scaled = np.sqrt(2.0 * c[d]) * u
        env = np.exp(-(c[d] - a[d]) * u**2)
        out = np.empty((x.size, orders.size))
        for j, k in enumerate(orders):
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            herm = np.polynomial.hermite.hermval(scaled, coeffs)
            log_norm = -0.5 * (
                k * np.log(2.0)
                + float(np.sum(np.log(np.arange(1, k + 1))))
                + 0.5 * np.log(np.pi)
                - 0.5 * np.log(2.0 * c[d])
                - 0.5 * np.log(2.0 * np.pi * sds[d] ** 2)
            )
            out[:, j] = np.exp(log_norm) * env * herm
        return out

    # Enumerate the `count` largest eigenvalue products over the index lattice
    # with a max-heap; log-eigenvalues are additive.
    log_lead = np.log(lead)
    log_ratio = np.log(ratio)

    def log_lam(idx: tuple) -> float:
        return float(np.sum(log_lead + np.asarray(idx) * log_ratio))

    start = (0,) * kernel.dim
    heap = [(-log_lam(start), start)]
    seen = {start}
    chosen: list[tuple] = []
    while heap and len(chosen) < count:
        neg, idx = heapq.heappop(heap)
        chosen.append(idx)
        for d in range(kernel.dim):
            if idx[d] + 1 >= max_order:
                continue
            nxt = idx[:d] + (idx[d] + 1,) + idx[d + 1 :]
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (-log_lam(nxt), nxt))
    if len(chosen) < count:
        raise ValueError(f"cannot enumerate {count} eigenpairs under the per-dimension cap")

    indices = np.asarray(chosen)  # (count, D)
    lam_values = kernel.theta_f * np.exp([log_lam(tuple(i)) for i in chosen])

    per_dim_orders = [np.unique(indices[:, d]) for d in range(kernel.dim)]

    # High-order Hermite eigenfunctions have fourth moments far too heavy
    # for the generic Monte-Carlo gate, so this analytic expansion is
    # validated by quadrature instead (exact for Gaussian-times-polynomial
    # integrands).
    for d in range(kernel.dim):
        defect = quadrature_defect(d, per_dim_orders[d])
        if defect > 1e-8:
            raise ValueError(f"axis {d} eigenfunctions fail quadrature orthonormality: {defect:.3g}")

    def phi(X) -> np.ndarray:
        X = _as_points(X, kernel.dim)
        axis_vals = []
        for d in range(kernel.dim):
            vals = one_dim_values(d, per_dim_orders[d], X[:, d])
            lookup = {k: j for j, k in enumerate(per_dim_orders[d])}
            axis_vals.append((vals, lookup))
        out = np.ones((X.shape[0], indices.shape[0]))
        for j, idx in enumerate(indices):
            for d in range(kernel.dim):
                vals, lookup = axis_vals[d]
                out[:, j] *= vals[:, lookup[idx[d]]]
        return out

    def sample_base(rng: np.random.Generator, size: int) -> np.ndarray:
        return means + sds * rng.standard_normal((size, kernel.dim))

    order = np.argsort(-lam_values, kind="stable")
    indices = indices[order]
    lam_values = lam_values[order]
    return eigen_expansion(phi, lam_values, sample_base, check_draws=0)


# ---------------------------------------------------------------------------
# FITC and VFE baselines.


def _inducing_predict(kernel: Kernel, X, y, sigma2: float, X_U, X_star, heteroscedastic: bool):
    """Shared machinery for models of the form N(y; 0, Q + diag(lam)).

    Q = K_nm K_mm^{-1} K_mn; lam is diag(K - Q) + sigma2 for the
    heteroscedastic (FITC) case and a constant sigma2 otherwise (DTC/VFE).
    Returns (mean, var, evidence, trace_K_minus_Q), where var is the
    pointwise predictive variance

        var(x*) = theta_f - q(x*, x*) + k(x*, X_U) B^{-1} k(X_U, x*)

    with q the Nystrom kernel and B = K_mm + K_mn diag(lam)^{-1} K_nm
    (k(x, x) = theta_f for every stationary kernel here). The test points
    cost O(n* M^2) flops and O(n* M) memory: no k(X*, X*) and no
    n* x n* product.
    """
    X = _as_points(X, kernel.dim)
    X_U = _as_points(X_U, kernel.dim)
    X_star = _as_points(X_star, kernel.dim)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.size

    K_mm = gram(kernel, X_U)
    factor_mm = linalg.cholesky(K_mm)
    K_mn = gram(kernel, X_U, X)
    q_diag = linalg.chol_quad_diag(factor_mm, K_mn)
    trace_correction = float(np.sum(kernel.theta_f - q_diag))

    if heteroscedastic:
        lam = kernel.theta_f - q_diag + sigma2
    else:
        lam = np.full(n, sigma2)

    scaled = K_mn / lam
    B = K_mm + scaled @ K_mn.T
    factor_b = linalg.cholesky(0.5 * (B + B.T))
    beta = scaled @ y
    w = linalg.chol_solve(factor_b, beta)

    K_sm = gram(kernel, X_star, X_U)
    mean = K_sm @ w
    var = (
        np.full(X_star.shape[0], kernel.theta_f)
        - linalg.chol_quad_diag(factor_mm, K_sm.T)
        + linalg.chol_quad_diag(factor_b, K_sm.T)
    )

    quad = float(y @ (y / lam) - beta @ w)
    logdet_cov = float(np.sum(np.log(lam))) + linalg.logdet(factor_b) - linalg.logdet(factor_mm)
    evidence = -0.5 * quad - 0.5 * logdet_cov - 0.5 * n * np.log(2.0 * np.pi)
    return mean, var, evidence, trace_correction


def fitc_predict(kernel: Kernel, X, y, sigma2: float, X_U, X_star):
    """Fully independent training conditional baseline.

    The implied prior keeps the exact diagonal: Q + diag(K - Q) + sigma2 I.
    Returns (mean, pointwise variance, evidence).
    """
    mean, var, evidence, _ = _inducing_predict(kernel, X, y, sigma2, X_U, X_star, heteroscedastic=True)
    return mean, var, evidence


def vfe_predict(kernel: Kernel, X, y, sigma2: float, X_U, X_star):
    """Variational free-energy baseline.

    Predictions coincide with DTC; the evidence is the DTC evidence minus
    the nonnegative slack trace(K - Q) / (2 sigma2), making it a lower bound
    on the exact evidence. Returns (mean, pointwise variance, evidence).
    """
    mean, var, evidence, trace_correction = _inducing_predict(
        kernel, X, y, sigma2, X_U, X_star, heteroscedastic=False
    )
    return mean, var, evidence - 0.5 * trace_correction / sigma2


def dtc_predict(kernel: Kernel, X, y, sigma2: float, X_U, X_star):
    """Deterministic training conditional: SoR mean with exact-prior variance.

    Returns (mean, pointwise variance, evidence).
    """
    mean, var, evidence, _ = _inducing_predict(kernel, X, y, sigma2, X_U, X_star, heteroscedastic=False)
    return mean, var, evidence
