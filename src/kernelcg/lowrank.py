"""Finite-rank kernel approximations and the inducing-point baselines.

A rank-M kernel has the form k(x, z) ~= phi(x)^T Sigma^{-1} phi(z). With
noise Lam (sigma2 I, or a per-point diagonal) the model is
N(y; 0, Phi^T Sigma^{-1} Phi + Lam), Phi_ij = phi_i(X_j), and the
matrix-inversion and matrix-determinant lemmas reduce it from O(N^3) to
O(N M^2) with A = Phi Lam^{-1} Phi^T + Sigma:

    mean(x*)   = phi(x*)^T A^{-1} Phi Lam^{-1} y
    cov(x*,z*) = phi(x*)^T A^{-1} phi(z*)
    evidence   = -1/2 (y^T Lam^{-1} y - y^T Lam^{-1} Phi^T A^{-1} Phi Lam^{-1} y)
                 - 1/2 (sum log Lam + ln|A| - ln|Sigma|) - N/2 ln(2 pi)

:func:`lowrank_fit` is this one algebra for every finite-rank and
inducing-point model here, and the only place one is factored. SoR, DTC,
VFE and FITC all fit N(y; 0, Q + Lam) with the Nystrom kernel
Q = K_NU K_UU^{-1} K_UN of :func:`sor_expansion` (Quinonero-Candela &
Rasmussen, 2005): DTC is SoR with dtc variances, VFE subtracts
tr(K - Q) / 2 sigma2 from its evidence, and FITC has
Lam = theta_f - diag Q + sigma2. The projected Bayes regressor fits an
eigenexpansion.

The covariance comes in two flavours: "plain" (which decays to zero far
from the data) and "dtc", which restores the exact kernel for the prior
term:

    cov_dtc(x*,z*) = k(x*,z*) - phi(x*)^T Sigma^{-1} phi(z*) + cov_plain(x*,z*)

:func:`lowrank_var` returns the covariance, :func:`lowrank_var_diag` only its
diagonal (the pointwise variance) without forming it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
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
    :func:`sor_expansion`. ``sigma_factor`` is chol(Sigma), factored when
    the expansion is built.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    Sigma: np.ndarray
    prior_kernel: Optional[Kernel] = None
    sigma_factor: linalg.CholeskyFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma_factor", linalg.cholesky(self.Sigma))

    @property
    def rank(self) -> int:
        return self.Sigma.shape[0]


def sor_expansion(kernel: Kernel, X_U) -> FeatureExpansion:
    """Subset-of-regressors expansion: phi(x) = k(X_U, x), Sigma = k(X_U, X_U).

    The induced kernel is k(x, X_U) K_UU^{-1} k(X_U, z).
    """
    X_U = _as_points(X_U, kernel.dim)
    return FeatureExpansion(
        phi=lambda Xq: gram(kernel, _as_points(Xq, kernel.dim), X_U),
        Sigma=gram(kernel, X_U),
        prior_kernel=kernel,
    )


@dataclass(frozen=True)
class LowRankModel:
    expansion: FeatureExpansion
    Phi: np.ndarray  # M x N design matrix
    y: np.ndarray
    sigma2: np.ndarray  # Lam: the noise variance of each training point
    factor: linalg.CholeskyFactor  # chol(A), A = Phi Lam^{-1} Phi^T + Sigma
    weights: np.ndarray  # A^{-1} Phi Lam^{-1} y


def lowrank_fit(expansion: FeatureExpansion, X, y, sigma2) -> LowRankModel:
    """Assemble the design matrix and factorize A = Phi Lam^{-1} Phi^T + Sigma.

    sigma2 is Lam: a positive scalar (Lam = sigma2 I) or N positive variances.
    """
    return _fit_design(expansion, np.asarray(expansion.phi(X), dtype=float).T, y, sigma2)


def _fit_design(expansion: FeatureExpansion, Phi: np.ndarray, y, sigma2) -> LowRankModel:
    """:func:`lowrank_fit` on a design matrix Phi that is already assembled."""
    if Phi.shape != (expansion.rank, np.size(y)):
        raise ValueError(f"feature map produced shape {Phi.T.shape}, expected ({np.size(y)}, {expansion.rank})")
    y = np.asarray(y, dtype=float).reshape(-1)
    lam = np.broadcast_to(np.asarray(sigma2, dtype=float), y.shape)
    if not np.all(lam > 0.0):
        raise ValueError("sigma2 must be positive")
    scaled = Phi / lam
    A = scaled @ Phi.T + expansion.Sigma
    factor = linalg.cholesky(0.5 * (A + A.T))
    weights = linalg.chol_solve(factor, scaled @ y)
    return LowRankModel(expansion=expansion, Phi=Phi, y=y, sigma2=lam, factor=factor, weights=weights)


def lowrank_mean(model: LowRankModel, X_star) -> np.ndarray:
    return np.asarray(model.expansion.phi(X_star), dtype=float) @ model.weights


def lowrank_var(
    model: LowRankModel,
    X_star,
    X_star2=None,
    mode: str = "plain",
) -> np.ndarray:
    """Predictive covariance in plain or dtc mode.

    plain: phi* A^{-1} phi**
    dtc:   k(x*,x**) - phi* Sigma^{-1} phi** + plain
    """
    if mode not in ("plain", "dtc"):
        raise ValueError(f"unknown variance mode {mode!r}")
    P_star = np.asarray(model.expansion.phi(X_star), dtype=float)
    P_star2 = P_star if X_star2 is None else np.asarray(model.expansion.phi(X_star2), dtype=float)
    plain = P_star @ linalg.chol_solve(model.factor, P_star2.T)
    if mode == "plain":
        return plain
    kernel = model.expansion.prior_kernel
    if kernel is None:
        raise ValueError("dtc mode requires an expansion with a prior_kernel")
    X_star2 = X_star if X_star2 is None else X_star2
    K_ss = gram(kernel, _as_points(X_star, kernel.dim), _as_points(X_star2, kernel.dim))
    approx_prior = P_star @ linalg.chol_solve(model.expansion.sigma_factor, P_star2.T)
    return K_ss - approx_prior + plain


def lowrank_var_diag(model: LowRankModel, X_star, mode: str = "plain") -> np.ndarray:
    """Pointwise predictive variance, the diagonal of :func:`lowrank_var`.

    plain: phi* A^{-1} phi*
    dtc:   theta_f - phi* Sigma^{-1} phi* + plain, with theta_f = k(x*, x*)
           of the prior kernel (every stationary kernel here)

    Costs O(n* M^2) flops and O(n* M) memory: the n* x M features and two
    arrays of their size; no n* x n* array.
    """
    if mode not in ("plain", "dtc"):
        raise ValueError(f"unknown variance mode {mode!r}")
    phi_star = np.asarray(model.expansion.phi(X_star), dtype=float)
    plain = _plain_var(model, phi_star)
    if mode == "plain":
        return plain
    return _prior_defect(model.expansion, phi_star) + plain


def _plain_var(model: LowRankModel, phi_star: np.ndarray) -> np.ndarray:
    """phi* A^{-1} phi* for each row of the evaluated features phi(X*)."""
    return linalg.chol_quad_diag(model.factor, phi_star.T)


def _prior_defect(expansion: FeatureExpansion, phi_star: np.ndarray) -> np.ndarray:
    """theta_f - phi* Sigma^{-1} phi* for each row of the evaluated features phi(X*).

    The dtc variance is this plus the plain one. It does not depend on the
    fit, so every fit on one expansion can share it.
    """
    kernel = expansion.prior_kernel
    if kernel is None:
        raise ValueError("dtc mode requires an expansion with a prior_kernel")
    return kernel.theta_f - linalg.chol_quad_diag(expansion.sigma_factor, phi_star.T)


def lowrank_evidence(model: LowRankModel) -> float:
    """Log evidence of the degenerate model N(y; 0, Phi^T Sigma^{-1} Phi + Lam)."""
    lam = model.sigma2
    quad = model.y @ (model.y / lam) - ((model.Phi / lam) @ model.y) @ model.weights
    logdet = np.sum(np.log(lam)) + linalg.logdet(model.factor) - linalg.logdet(model.expansion.sigma_factor)
    return float(-0.5 * (quad + logdet + model.y.size * np.log(2.0 * np.pi)))


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
    return _PbrFits(expansion, X, y, sigma2, X_star).predict(expansion.eigenvalues.size)


class _PbrFits:
    """Projected Bayes regressors of every rank on one eigenexpansion.

    phi(X) and phi(X*) are evaluated once, at full rank, by the first
    :meth:`predict` (again if it raised). The features of
    truncate_expansion(expansion, count) are their leading `count` columns,
    so each rank fits on a slice of them.
    """

    def __init__(self, expansion: EigenExpansion, X, y, sigma2: float, X_star):
        self.expansion, self.X, self.y, self.sigma2, self.X_star = expansion, X, y, sigma2, X_star

    @cached_property
    def _features(self) -> tuple[np.ndarray, np.ndarray]:
        phi = self.expansion.phi
        return np.asarray(phi(self.X), dtype=float), np.asarray(phi(self.X_star), dtype=float)

    def predict(self, count: int) -> np.ndarray:
        """The prediction of pbr_predict(truncate_expansion(expansion, count), ...)."""
        truncated = truncate_expansion(self.expansion, count)
        Phi, phi_star = self._features
        feat = FeatureExpansion(phi=truncated.phi, Sigma=np.diag(1.0 / truncated.eigenvalues))
        model = _fit_design(feat, Phi[:, :count].T, self.y, self.sigma2)
        return phi_star[:, :count] @ model.weights


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
# The inducing-point baselines: SoR, DTC, FITC and VFE.


class _InducingFits:
    """SoR, DTC, FITC and VFE on one inducing set, sharing their work.

    K_UU, its factor, K_UN and phi(X*) = k(X*, X_U) are computed once. sor,
    dtc and vfe share the fit with Lam = sigma2 I and its plain variance
    (sor's, and part of dtc's), dtc, vfe and fitc the prior defect
    theta_f - phi* K_UU^{-1} phi*, dtc and vfe the dtc variance, fitc and
    vfe the Nystrom gap diag(K - Q) at the training inputs. Each piece is
    computed by the first :meth:`predict` that needs it (again if it raised).
    """

    def __init__(self, kernel: Kernel, X, y, sigma2: float, X_U, X_star):
        self.kernel, self.X, self.y, self.sigma2, self.X_U, self.X_star = kernel, X, y, sigma2, X_U, X_star

    @cached_property
    def _basis(self) -> tuple[FeatureExpansion, np.ndarray]:
        expansion = sor_expansion(self.kernel, self.X_U)
        return expansion, np.asarray(expansion.phi(self.X), dtype=float).T

    @cached_property
    def _phi_star(self) -> np.ndarray:
        return np.asarray(self._basis[0].phi(self.X_star), dtype=float)

    @cached_property
    def _defect(self) -> np.ndarray:
        return _prior_defect(self._basis[0], self._phi_star)

    @cached_property
    def _fit(self):
        model = _fit_design(*self._basis, self.y, self.sigma2)
        return self._phi_star @ model.weights, _plain_var(model, self._phi_star), lowrank_evidence(model)

    @cached_property
    def _dtc_var(self) -> np.ndarray:
        return self._defect + self._fit[1]

    @cached_property
    def _gap(self) -> np.ndarray:
        expansion, Phi = self._basis
        return self.kernel.theta_f - linalg.chol_quad_diag(expansion.sigma_factor, Phi)

    def predict(self, method: str):
        """(mean, pointwise variance, evidence) of one of sor, dtc, fitc, vfe."""
        if method == "fitc":
            model = _fit_design(*self._basis, self.y, self._gap + self.sigma2)
            phi_star = self._phi_star
            return phi_star @ model.weights, self._defect + _plain_var(model, phi_star), lowrank_evidence(model)
        mean, plain, evidence = self._fit
        if method == "sor":
            return mean, plain, evidence
        if method == "dtc":
            return mean, self._dtc_var, evidence
        if method == "vfe":
            return mean, self._dtc_var, evidence - 0.5 * float(np.sum(self._gap)) / self.sigma2
        raise ValueError(f"unknown inducing baseline {method!r}")


def fitc_predict(kernel: Kernel, X, y, sigma2: float, X_U, X_star):
    """Fully independent training conditional baseline.

    The implied prior keeps the exact diagonal: Q + diag(K - Q) + sigma2 I.
    Returns (mean, pointwise variance, evidence).
    """
    return _InducingFits(kernel, X, y, sigma2, X_U, X_star).predict("fitc")


def vfe_predict(kernel: Kernel, X, y, sigma2: float, X_U, X_star):
    """Variational free-energy baseline.

    Predictions coincide with DTC; the evidence is the DTC evidence minus
    the nonnegative slack trace(K - Q) / (2 sigma2), making it a lower bound
    on the exact evidence. Returns (mean, pointwise variance, evidence).
    """
    return _InducingFits(kernel, X, y, sigma2, X_U, X_star).predict("vfe")


def dtc_predict(kernel: Kernel, X, y, sigma2: float, X_U, X_star):
    """Deterministic training conditional: SoR mean with exact-prior variance.

    Returns (mean, pointwise variance, evidence).
    """
    return _InducingFits(kernel, X, y, sigma2, X_U, X_star).predict("dtc")
