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
place an inducing-point A is factored; it reads every leading subset of
one inducing set off one factor of K_UU and one of A (FITC, whose Lam
depends on the subset, one A per subset), and :func:`choose_inducing`'s
draws with one seed are such leading subsets. SoR's variance is the plain one
above, which decays to zero far from the data; DTC is SoR with the exact
prior restored in its variance,

    var_dtc(x*) = theta_f - phi(x*)^T K_UU^{-1} phi(x*) + var(x*),

VFE subtracts tr(K - Q) / 2 sigma2 from its evidence, and FITC has
Lam = theta_f - diag Q + sigma2 where the others have Lam = sigma2 I.
The gap theta_f - diag Q and its test-side twin, the prior defect, are
clamped at 0: a numerically singular K_UU that a ladder rung accepts
rounds them below it. So FITC's Lam >= sigma2 and VFE's evidence is at
most DTC's on every inducing set and every leading subset of one.
The projected Bayes regressor fits the leading eigenpairs of
:func:`se_eigen_expansion` (the Hermite recurrence, with an exact
orthonormality check), and :class:`PbrFits`, its one entry, reads every
rank off one factor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import linalg
from .kernels import SQUARED_EXPONENTIAL, Kernel, _as_points, _check_sigma2, gram


def choose_inducing(n_total: int, m: int, seed) -> np.ndarray:
    """Uniformly sample m inducing indices out of n_total without replacement.

    The indices are the first m entries of ``rng.permutation(n_total)``, in
    that order, so draws with equal seeds are nested: the smaller is the
    leading part of the larger, and :class:`InducingFits` reads both off
    one fit. At m = n_total the draw is ``arange(n_total)``, the data's own
    order. Shared by every inducing-point method so that equal seeds select
    equal subsets across methods.
    """
    if not (1 <= m <= n_total):
        raise ValueError(f"need 1 <= m <= {n_total}, got {m}")
    if m == n_total:
        return np.arange(n_total)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.permutation(n_total)[:m]


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
    So every rank's mean phi*_c A_c^{-1} b_c, b = Phi y / sigma2, is a
    prefix sum of one :func:`kernelcg.linalg.chol_prefix_solve`. The first
    :meth:`predict` (again if it raised) evaluates phi(X) and phi(X*),
    factors A and forward-substitutes [b, phi(X*)^T], once.
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
        factor = linalg.cholesky(0.5 * (A + A.T))
        b = scaled @ np.asarray(self.y, dtype=float).reshape(-1)
        return linalg.chol_prefix_solve(factor, b, np.asarray(phi(self.X_star), dtype=float).T)[0]

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
    """SoR, DTC, FITC and VFE on every leading subset of one inducing set.

    The fit at count m is the fit on X_U[:m], so X_U's order matters (see
    :func:`choose_inducing`). K_UU, Phi = K_UN and phi(X*) = k(X*, X_U) are
    computed once, at the full count M. The leading m x m block of a
    Cholesky factor is the factor of the leading block, and forward
    substitution is row-incremental, so chol(K_UU) and chol(A), A =
    Phi Phi^T / sigma2 + K_UU, hold every count's factors, and every count's
    pieces are prefix sums over the rows of L^{-1}(.): one
    :func:`kernelcg.linalg.chol_prefix_solve` of [Phi y / sigma2, phi(X*)^T]
    with chol(A) gives every count's sor/dtc/vfe mean, plain variance and
    y's quadratic form, and the two log-determinants are running sums of
    the logs of the factors' diagonals; the prior defect and the Nystrom
    gap diag(K - Q) at the training inputs subtract the running sums of the
    squared rows of L_UU^{-1} phi(X*)^T and L_UU^{-1} Phi from theta_f, each
    clamped at 0 per count. fitc's Lam = gap + sigma2 depends on m, the
    count's gap read off those sums: it factors its own m x m A per count
    and makes the same prefix solve, reading its last row. Each shared
    piece is computed by the first :meth:`predict` that needs it (again if
    it raised).

    Jitter: K_UU and A each run one jitter ladder, at the full count, and
    every count carries the rung it stopped at, since the leading block of
    chol(K + j I) is chol(K_m + j I); a fit on X_U[:m] alone may stop at a
    lower rung. fitc's factors run a ladder per count.

    Memory: besides the inputs, two M x N arrays (Phi and the gaps) and
    four M x n* ones (phi(X*), the defects, the means and the plain
    variances); each factored fit, the shared one and fitc's at each
    count, adds Phi_m Lam^{-1/2} (m x N), A and the prefix solve's two
    m x n* arrays while it runs, and fitc's last rows outlive it. No N x N
    and no n* x n* array: at N 1500, n* 500 and M 123 the peak is 7.5 MB,
    against 18 MB for one N x N array.
    """

    def __init__(self, kernel: Kernel, X, y, sigma2: float, X_U, X_star):
        self.kernel, self.X, self.y, self.sigma2, self.X_U, self.X_star = kernel, X, y, sigma2, X_U, X_star

    @cached_property
    def _basis(self) -> tuple[FeatureExpansion, linalg.CholeskyFactor, np.ndarray, np.ndarray]:
        """The expansion, chol(K_UU), Phi = K_UN and ln|K_UU| at every count."""
        expansion = sor_expansion(self.kernel, self.X_U)
        factor = linalg.cholesky(expansion.Sigma)
        Phi = np.asarray(expansion.phi(self.X), dtype=float).T
        if Phi.shape[1] != np.size(self.y):
            raise ValueError(f"y has {np.size(self.y)} entries but X has {Phi.shape[1]} points")
        return expansion, factor, Phi, 2.0 * np.cumsum(np.log(np.diag(factor.L)))

    @cached_property
    def _phi_star(self) -> np.ndarray:
        return np.asarray(self._basis[0].phi(self.X_star), dtype=float)

    def _nystrom_gaps(self, U: np.ndarray) -> np.ndarray:
        """Row m - 1 is theta_f - diag(U_m^T K_UU,m^{-1} U_m) clamped at 0: the
        prior variance the count-m Nystrom kernel misses at the points whose
        k(X_U, .) is U."""
        gaps = linalg.chol_prefix_quad_diag(self._basis[1], U)
        return np.maximum(np.subtract(self.kernel.theta_f, gaps, out=gaps), 0.0, out=gaps)

    @cached_property
    def _defects(self) -> np.ndarray:
        return self._nystrom_gaps(self._phi_star.T)

    @cached_property
    def _gaps(self) -> np.ndarray:
        return self._nystrom_gaps(self._basis[2])

    def _fit(self, lam, m: int):
        """Row i - 1 of the mean and plain variance at X* and entry i - 1 of
        the log evidence of N(y; 0, Q_i + Lam) on the first i inducing
        points, for every i <= m: Lam a scalar (Lam I) or one variance per
        training point, each at least sigma2. With W = Phi_m Lam^{-1/2} and
        L L^T = A = W W^T + K_UU,m these are prefix sums of one forward
        substitution (linalg.chol_prefix_solve) of [W Lam^{-1/2} y, phi(X*)^T],
        and ln|A_i| the running sum of 2 ln diag L. W W^T is one syrk: half a
        GEMM's flops, and bit-symmetric, as the Gram K_UU,m is."""
        expansion, _, Phi, logdets = self._basis
        y = np.asarray(self.y, dtype=float).reshape(-1)
        lam = np.broadcast_to(np.asarray(lam, dtype=float), y.shape)
        root = np.sqrt(lam)
        W = Phi[:m] / root
        factor = linalg.cholesky(W @ W.T + expansion.Sigma[:m, :m])
        means, plains, quads = linalg.chol_prefix_solve(factor, W @ (y / root), self._phi_star[:, :m].T)
        logdet_a = np.cumsum(2.0 * np.log(np.diag(factor.L)))
        terms = y @ (y / lam) + np.sum(np.log(lam)) - quads + logdet_a - logdets[:m]
        return means, plains, -0.5 * (terms + y.size * np.log(2.0 * np.pi))

    @cached_property
    def _shared(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """sor's, dtc's and vfe's fit, N(y; 0, Q + sigma2 I), at every count."""
        return self._fit(self.sigma2, self._basis[1].dim)

    def predict(self, method: str, count: Optional[int] = None):
        """(mean, pointwise variance, evidence) of one of sor, dtc, fitc, vfe
        on the first `count` inducing points, 1 <= count <= M (all M by default).

        dtc is the sor mean with the exact-prior (dtc) variance; vfe predicts
        as dtc and subtracts the nonnegative slack tr(K - Q) / (2 sigma2)
        from its evidence, a lower bound on the exact evidence; fitc keeps
        the exact prior diagonal, Q + diag(K - Q) + sigma2 I.
        """
        if method not in ("sor", "dtc", "fitc", "vfe"):
            raise ValueError(f"unknown inducing baseline {method!r}")
        _check_sigma2(self.sigma2)
        size = self._basis[1].dim
        m = size if count is None else int(count)
        if not (1 <= m <= size):
            raise ValueError(f"count must be in [1, {size}]")
        if method == "fitc":
            means, plains, evidences = self._fit(self._gaps[m - 1] + self.sigma2, m)
        else:
            means, plains, evidences = self._shared
        mean, plain, evidence = means[m - 1].copy(), plains[m - 1], float(evidences[m - 1])
        if method == "sor":
            return mean, plain.copy(), evidence
        if method == "vfe":
            evidence -= 0.5 * float(np.sum(self._gaps[m - 1])) / self.sigma2
        return mean, self._defects[m - 1] + plain, evidence
