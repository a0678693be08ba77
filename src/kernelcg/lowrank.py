"""Finite-rank kernel approximations and the inducing-point baselines.

SoR, DTC, VFE and FITC are one model, N(y; 0, Q + Lam), with the Nystrom
kernel Q = Phi^T Sigma^{-1} Phi of :func:`sor_expansion` (Sigma = K_UU,
Phi = K_UN) and different noise Lam (Quinonero-Candela & Rasmussen, 2005).
The matrix-inversion and matrix-determinant lemmas reduce it from O(N^3)
to O(N M^2) with A = Phi Lam^{-1} Phi^T + Sigma:

    mean(x*)   = phi(x*)^T A^{-1} Phi Lam^{-1} y
    var(x*)    = phi(x*)^T A^{-1} phi(x*)
    evidence   = -1/2 (y^T Lam^{-1} y - y^T Lam^{-1} Phi^T A^{-1} Phi Lam^{-1} y)
                 - 1/2 (sum log Lam + ln|A| - ln|Sigma|) - N/2 ln(2 pi)

:class:`InducingFits` is this one algebra, their one entry, and the only
place an inducing-point A is factored. SoR's variance is the plain one
above, which decays to zero far from the data; DTC is SoR with the exact
prior restored in its variance,

    var_dtc(x*) = theta_f - phi(x*)^T K_UU^{-1} phi(x*) + var(x*),

VFE subtracts tr(K - Q) / 2 sigma2 from its evidence, and FITC has
Lam = theta_f - diag Q + sigma2 where the others have Lam = sigma2 I.
The gap theta_f - diag Q and its test-side twin, the prior defect, are
clamped at 0: a numerically singular K_UU that a ladder rung accepts
rounds them below it. So FITC's Lam >= sigma2 and VFE's evidence is at
most DTC's on every inducing set.
The projected Bayes regressor fits the leading eigenpairs of
:func:`se_eigen_expansion` (the Hermite recurrence, with an exact
orthonormality check), and :class:`PbrFits`, its one entry, reads every
rank off one factor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg
from .kernels import SQUARED_EXPONENTIAL, Kernel, _as_points, _check_sigma2, gram


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
    """Feature map phi (points -> n x M array) with inner matrix Sigma."""

    phi: Callable[[np.ndarray], np.ndarray]
    Sigma: np.ndarray


def sor_expansion(kernel: Kernel, X_U) -> FeatureExpansion:
    """Subset-of-regressors expansion: phi(x) = k(X_U, x), Sigma = k(X_U, X_U).

    The induced kernel is k(x, X_U) K_UU^{-1} k(X_U, z).
    """
    X_U = _as_points(X_U, kernel.dim)
    return FeatureExpansion(
        phi=lambda Xq: gram(kernel, _as_points(Xq, kernel.dim), X_U),
        Sigma=gram(kernel, X_U),
    )


# ---------------------------------------------------------------------------
# Eigenfunction expansions and the projected Bayes regressor.


@dataclass(frozen=True)
class EigenExpansion:
    """Eigenpairs of a kernel, orthonormal with respect to a base density.

    ``phi`` maps an (n, D) point array to the (n, P) matrix of eigenfunction
    values; ``eigenvalues`` must be positive and sorted descending.
    Orthonormality is the constructor's to establish (see
    :func:`se_eigen_expansion`, which checks it by an exact quadrature).
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

    The rank-c regressor predicts phi*_c A_c^{-1} Phi_c y / sigma2 with
    A_c = Phi_c Phi_c^T / sigma2 + Lam_c^{-1} on the leading c eigenpairs:
    the low-rank model with Sigma = Lam_c^{-1}. Sigma is diagonal, so A_c is
    the leading block of A and chol(A_c) the leading block of L = chol(A).
    With v = L^{-1} Phi y / sigma2 and V = L^{-1} phi(X*)^T, the rank-c mean
    is the prefix sum of v_j V_j over j < c, as in kmcg.kmcg_predictions.
    The first :meth:`predict` (again if it raised) evaluates phi(X) and
    phi(X*), factors A and forward-substitutes both, once.
    """

    def __init__(self, expansion: EigenExpansion, X, y, sigma2: float, X_star):
        self.expansion, self.X, self.y, self.sigma2, self.X_star = expansion, X, y, sigma2, X_star

    @cached_property
    def _means(self) -> np.ndarray:
        """Row c - 1 is the rank-c mean at X*."""
        sigma2 = _check_sigma2(self.sigma2)
        phi = self.expansion.phi
        Phi = np.asarray(phi(self.X), dtype=float).T
        scaled = Phi / sigma2
        A = scaled @ Phi.T + np.diag(1.0 / self.expansion.eigenvalues)
        L = linalg.cholesky(0.5 * (A + A.T)).L
        v = solve_triangular(L, scaled @ np.asarray(self.y, dtype=float).reshape(-1), lower=True)
        V = solve_triangular(L, np.asarray(phi(self.X_star), dtype=float).T, lower=True)
        return np.cumsum(np.multiply(V, v[:, None], out=V), axis=0)

    def predict(self, count: int) -> np.ndarray:
        """The mean of the regressor on the leading `count` eigenpairs, 1 <= count <= rank."""
        rank = self.expansion.eigenvalues.size
        if not (1 <= count <= rank):
            raise ValueError(f"count must be in [1, {rank}]")
        return self._means[count - 1].copy()


def se_eigen_expansion(kernel: Kernel, measure_means, measure_sds, count: int) -> EigenExpansion:
    """The `count` leading eigenpairs of the ARD squared-exponential kernel
    under an axis-aligned Gaussian base density (Zhu, Williams, Rohwer &
    Morciniec, 1998; Rasmussen & Williams, 2006, sec. 4.3.1).

    Per axis, with a = 1/(4 s^2), b = lam/2, c = sqrt(a^2 + 2 a b) and
    A = a + b + c, the eigenvalues are sqrt(2a/A) (b/A)^k and the
    eigenfunctions are normalized Hermite functions of the centered
    coordinate u, t = sqrt(2c) u; one recurrence pass gives every order:

        phi_0 = (c/a)^(1/4) exp(-(c - a) u^2),   phi_1 = sqrt(2) t phi_0,
        phi_k+1 = sqrt(2/(k+1)) t phi_k - sqrt(k/(k+1)) phi_k-1,

    so where the envelope underflows every order is zero. D-dimensional
    eigenpairs are products; the `count` largest pop off a heap over the
    order lattice (at most 128 orders per axis) in non-increasing order.
    The same recurrence is checked for orthonormality at the top + 1
    Gauss-Hermite nodes t_i, x_i = mean + t_i / sqrt(2c), with weights
    w_i sqrt(a / (pi c)) exp(2 (c - a) u_i^2): in t the integrand is
    exp(-t^2) times a polynomial of degree at most 2 top, so the rule is
    exact and a defect above 1e-8 raises a ValueError.
    """
    if kernel.family != SQUARED_EXPONENTIAL:
        raise ValueError("analytic eigenexpansion is only available for the squared-exponential family")
    if count < 1:
        raise ValueError(f"need count >= 1 eigenpairs, got {count}")
    means = np.broadcast_to(np.asarray(measure_means, dtype=float), (kernel.dim,)).copy()
    sds = np.broadcast_to(np.asarray(measure_sds, dtype=float), (kernel.dim,)).copy()
    if np.any(sds <= 0.0):
        raise ValueError("measure standard deviations must be positive")

    a = 1.0 / (4.0 * sds**2)
    b = kernel.lam / 2.0
    c = np.sqrt(a**2 + 2.0 * a * b)
    big_a = a + b + c
    log_lead = np.log(np.sqrt(2.0 * a / big_a))
    log_ratio = np.log(b / big_a)  # < 0: the geometric decay per order
    max_order = 128  # per-axis cap; far beyond any desk-scale rank

    def log_lam(idx: tuple) -> float:
        return float(np.sum(log_lead + np.asarray(idx) * log_ratio))

    start = (0,) * kernel.dim
    heap = [(-log_lam(start), start)]
    seen = {start}
    chosen: list[tuple] = []
    while heap and len(chosen) < count:
        _, idx = heapq.heappop(heap)
        chosen.append(idx)
        for d in range(kernel.dim):
            nxt = idx[:d] + (idx[d] + 1,) + idx[d + 1 :]
            if nxt[d] < max_order and nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (-log_lam(nxt), nxt))
    if len(chosen) < count:
        raise ValueError(f"cannot enumerate {count} eigenpairs under the per-dimension cap")
    indices = np.asarray(chosen)  # (count, D)
    top = indices.max(axis=0)

    def axis_values(d: int, x: np.ndarray) -> np.ndarray:
        """Orders 0..top[d] of axis d at the coordinates x, one row per order."""
        u = x - means[d]
        t = np.sqrt(2.0 * c[d]) * u
        out = np.empty((top[d] + 1, x.size))
        out[0] = (c[d] / a[d]) ** 0.25 * np.exp(-(c[d] - a[d]) * u**2)
        if top[d]:
            out[1] = np.sqrt(2.0) * t * out[0]
        for k in range(1, top[d]):
            out[k + 1] = np.sqrt(2.0 / (k + 1)) * t * out[k] - np.sqrt(k / (k + 1)) * out[k - 1]
        return out

    for d in range(kernel.dim):
        nodes, weights = np.polynomial.hermite.hermgauss(top[d] + 1)
        u = nodes / np.sqrt(2.0 * c[d])
        F = axis_values(d, means[d] + u)
        G = (F * (weights * np.sqrt(a[d] / (np.pi * c[d])) * np.exp(2.0 * (c[d] - a[d]) * u**2))) @ F.T
        defect = float(np.max(np.abs(G - np.eye(top[d] + 1))))
        if defect > 1e-8:
            raise ValueError(f"axis {d} eigenfunctions fail quadrature orthonormality: {defect:.3g}")

    def phi(X) -> np.ndarray:
        X = _as_points(X, kernel.dim)
        out = np.ones((X.shape[0], count))
        for d in range(kernel.dim):
            out *= axis_values(d, X[:, d])[indices[:, d]].T
        return out

    return EigenExpansion(phi, kernel.theta_f * np.exp([log_lam(idx) for idx in chosen]))


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
    def _basis(self) -> tuple[FeatureExpansion, linalg.CholeskyFactor, np.ndarray]:
        """The expansion, chol(K_UU) and Phi = K_UN."""
        expansion = sor_expansion(self.kernel, self.X_U)
        return expansion, linalg.cholesky(expansion.Sigma), np.asarray(expansion.phi(self.X), dtype=float).T

    @cached_property
    def _phi_star(self) -> np.ndarray:
        return np.asarray(self._basis[0].phi(self.X_star), dtype=float)

    def _nystrom_gap(self, U: np.ndarray) -> np.ndarray:
        """theta_f - diag(U^T K_UU^{-1} U) clamped at 0: the prior variance
        the Nystrom kernel misses at the points whose k(X_U, .) is U."""
        return np.maximum(self.kernel.theta_f - linalg.chol_quad_diag(self._basis[1], U), 0.0)

    @cached_property
    def _defect(self) -> np.ndarray:
        return self._nystrom_gap(self._phi_star.T)

    def _solve(self, lam):
        """(mean, plain variance, evidence) of N(y; 0, Q + Lam), Lam a scalar
        (Lam I) or one variance per training point, each at least sigma2."""
        expansion, factor_uu, Phi = self._basis
        if Phi.shape[1] != np.size(self.y):
            raise ValueError(f"y has {np.size(self.y)} entries but X has {Phi.shape[1]} points")
        y = np.asarray(self.y, dtype=float).reshape(-1)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), y.shape)
        _check_sigma2(self.sigma2)
        scaled = Phi / lam
        A = scaled @ Phi.T + expansion.Sigma
        factor = linalg.cholesky(0.5 * (A + A.T))
        rhs = scaled @ y
        weights = linalg.chol_solve(factor, rhs)
        quad = y @ (y / lam) - rhs @ weights
        logdet = np.sum(np.log(lam)) + linalg.logdet(factor) - linalg.logdet(factor_uu)
        evidence = float(-0.5 * (quad + logdet + y.size * np.log(2.0 * np.pi)))
        phi_star = self._phi_star
        return phi_star @ weights, linalg.chol_quad_diag(factor, phi_star.T), evidence

    @cached_property
    def _fit(self):
        return self._solve(self.sigma2)

    @cached_property
    def _dtc_var(self) -> np.ndarray:
        return self._defect + self._fit[1]

    @cached_property
    def _gap(self) -> np.ndarray:
        return self._nystrom_gap(self._basis[2])

    def predict(self, method: str):
        """(mean, pointwise variance, evidence) of one of sor, dtc, fitc, vfe.

        dtc is the sor mean with the exact-prior (dtc) variance; vfe predicts
        as dtc and subtracts the nonnegative slack tr(K - Q) / (2 sigma2)
        from its evidence, a lower bound on the exact evidence; fitc keeps
        the exact prior diagonal, Q + diag(K - Q) + sigma2 I.
        """
        if method == "fitc":
            mean, plain, evidence = self._solve(self._gap + self.sigma2)
            return mean, self._defect + plain, evidence
        mean, plain, evidence = self._fit
        if method == "sor":
            return mean, plain, evidence
        if method == "dtc":
            return mean, self._dtc_var, evidence
        if method == "vfe":
            return mean, self._dtc_var, evidence - 0.5 * float(np.sum(self._gap)) / self.sigma2
        raise ValueError(f"unknown inducing baseline {method!r}")
