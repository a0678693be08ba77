"""Finite-rank kernel approximations and the inducing-point baselines.

A rank-M kernel has the form k(x, z) ~= phi(x)^T Sigma^{-1} phi(z). With
noise Lam (sigma2 I, or a per-point diagonal) the model is
N(y; 0, Phi^T Sigma^{-1} Phi + Lam), Phi_ij = phi_i(X_j), and the
matrix-inversion and matrix-determinant lemmas reduce it from O(N^3) to
O(N M^2) with A = Phi Lam^{-1} Phi^T + Sigma:

    mean(x*)   = phi(x*)^T A^{-1} Phi Lam^{-1} y
    var(x*)    = phi(x*)^T A^{-1} phi(x*)
    evidence   = -1/2 (y^T Lam^{-1} y - y^T Lam^{-1} Phi^T A^{-1} Phi Lam^{-1} y)
                 - 1/2 (sum log Lam + ln|A| - ln|Sigma|) - N/2 ln(2 pi)

:func:`lowrank_fit` is this one algebra for every finite-rank and
inducing-point model here, and the only place one is factored. Its
variance, :func:`lowrank_var_diag`, is the model's own, which decays to
zero far from the data. SoR, DTC, VFE and FITC all fit N(y; 0, Q + Lam)
with the Nystrom kernel Q = K_NU K_UU^{-1} K_UN of :func:`sor_expansion`
(Quinonero-Candela & Rasmussen, 2005): DTC is SoR with the exact prior
restored in its variance,

    var_dtc(x*) = theta_f - phi(x*)^T K_UU^{-1} phi(x*) + var(x*),

VFE subtracts tr(K - Q) / 2 sigma2 from its evidence, and FITC has
Lam = theta_f - diag Q + sigma2. :class:`InducingFits` is their one
entry. The projected Bayes regressor fits an eigenexpansion, and
:class:`PbrFits` is its one entry.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

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

    ``sigma_factor`` is chol(Sigma), factored when the expansion is built.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    Sigma: np.ndarray
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
    )


@dataclass(frozen=True)
class LowRankModel:
    expansion: FeatureExpansion
    y: np.ndarray
    sigma2: np.ndarray  # Lam: the noise variance of each training point
    factor: linalg.CholeskyFactor  # chol(A), A = Phi Lam^{-1} Phi^T + Sigma
    rhs: np.ndarray  # Phi Lam^{-1} y
    weights: np.ndarray  # A^{-1} rhs


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
    rhs = scaled @ y
    weights = linalg.chol_solve(factor, rhs)
    return LowRankModel(expansion=expansion, y=y, sigma2=lam, factor=factor, rhs=rhs, weights=weights)


def lowrank_mean(model: LowRankModel, X_star) -> np.ndarray:
    return np.asarray(model.expansion.phi(X_star), dtype=float) @ model.weights


def lowrank_var_diag(model: LowRankModel, X_star) -> np.ndarray:
    """Pointwise predictive variance phi* A^{-1} phi*.

    Costs O(n* M^2) flops and O(n* M) memory: the n* x M features and two
    arrays of their size; no n* x n* array.
    """
    return _plain_var(model, np.asarray(model.expansion.phi(X_star), dtype=float))


def _plain_var(model: LowRankModel, phi_star: np.ndarray) -> np.ndarray:
    """phi* A^{-1} phi* for each row of the evaluated features phi(X*)."""
    return linalg.chol_quad_diag(model.factor, phi_star.T)


def lowrank_evidence(model: LowRankModel) -> float:
    """Log evidence of the degenerate model N(y; 0, Phi^T Sigma^{-1} Phi + Lam)."""
    lam = model.sigma2
    quad = model.y @ (model.y / lam) - model.rhs @ model.weights
    logdet = np.sum(np.log(lam)) + linalg.logdet(model.factor) - linalg.logdet(model.expansion.sigma_factor)
    return float(-0.5 * (quad + logdet + model.y.size * np.log(2.0 * np.pi)))


# ---------------------------------------------------------------------------
# Eigenfunction expansions and the projected Bayes regressor.


@dataclass(frozen=True)
class EigenExpansion:
    """Eigenpairs of a kernel, orthonormal with respect to a base density.

    ``phi`` maps an (n, D) point array to the (n, P) matrix of eigenfunction
    values; ``eigenvalues`` must be positive and sorted descending.
    Orthonormality is the constructor's to establish (see
    :func:`se_eigen_expansion`, which checks it by quadrature).
    """

    phi: Callable[[np.ndarray], np.ndarray]
    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if np.any(lam <= 0.0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(lam) > 0.0):
            raise ValueError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigenvalues", lam)


class PbrFits:
    """Projected Bayes regressors of every rank on one eigenexpansion.

    The rank-`count` regressor predicts phi* (Phi Phi^T + sigma2 Lam^{-1})^{-1} Phi y
    with the leading `count` eigenpairs: the low-rank machinery with the
    induced kernel phi(x)^T Lam phi(z), i.e. Sigma = Lam^{-1}. phi(X) and
    phi(X*) are evaluated once, at full rank, by the first :meth:`predict`
    (again if it raised), and each rank fits on their leading columns.
    """

    def __init__(self, expansion: EigenExpansion, X, y, sigma2: float, X_star):
        self.expansion, self.X, self.y, self.sigma2, self.X_star = expansion, X, y, sigma2, X_star

    @cached_property
    def _features(self) -> tuple[np.ndarray, np.ndarray]:
        phi = self.expansion.phi
        return np.asarray(phi(self.X), dtype=float), np.asarray(phi(self.X_star), dtype=float)

    def predict(self, count: int) -> np.ndarray:
        """The mean of the regressor on the leading `count` eigenpairs, 1 <= count <= rank."""
        rank = self.expansion.eigenvalues.size
        if not (1 <= count <= rank):
            raise ValueError(f"count must be in [1, {rank}]")
        Phi, phi_star = self._features
        phi = self.expansion.phi
        feat = FeatureExpansion(
            phi=lambda Xq: np.asarray(phi(Xq), dtype=float)[:, :count],
            Sigma=np.diag(1.0 / self.expansion.eigenvalues[:count]),
        )
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

    # Orthonormality is checked by Gauss-Hermite quadrature, which is exact
    # for these Gaussian-times-polynomial integrands.
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

    order = np.argsort(-lam_values, kind="stable")
    indices = indices[order]
    lam_values = lam_values[order]
    return EigenExpansion(phi, lam_values)


# ---------------------------------------------------------------------------
# The inducing-point baselines: SoR, DTC, FITC and VFE.


class InducingFits:
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
        return self.kernel.theta_f - linalg.chol_quad_diag(self._basis[0].sigma_factor, self._phi_star.T)

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
        """(mean, pointwise variance, evidence) of one of sor, dtc, fitc, vfe.

        dtc is the sor mean with the exact-prior (dtc) variance; vfe predicts
        as dtc and subtracts the nonnegative slack tr(K - Q) / (2 sigma2)
        from its evidence, a lower bound on the exact evidence; fitc keeps
        the exact prior diagonal, Q + diag(K - Q) + sigma2 I.
        """
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
