"""Finite-rank kernel approximations and the inducing-point baselines.

Every finite-rank regressor here, and KMCG (:mod:`kernelcg.kmcg`), is one
model, N(y; 0, F^T Sigma^{-1} F + Lam), with features F, an inner matrix
Sigma and noise Lam (Quinonero-Candela & Rasmussen, 2005): :class:`_Projection`
is its one algebra, and reads every leading count of the features off one
factor of Sigma and one of A = Sigma + F Lam^{-1} F^T. SoR, DTC, VFE and FITC
take the Nystrom kernel of :func:`sor_expansion` (Sigma = K_UU, F = K_UN)
and :class:`InducingFits` is their one entry; :func:`choose_inducing`'s
draws with one seed are leading subsets of one inducing set. SoR's variance
is the projection's plain one, which decays to zero far from the data; DTC
is SoR with the exact prior restored in its variance,

    var_dtc(x*) = theta_f - phi(x*)^T K_UU^{-1} phi(x*) + var(x*),

VFE subtracts tr(K - Q) / 2 sigma2 from its evidence, and FITC has
Lam = theta_f - diag Q + sigma2 where the others have Lam = sigma2 I.
The gap theta_f - diag Q and its test-side twin, the prior defect, are
:func:`_nystrom_gaps`, clamped at 0: a numerically singular K_UU that a
ladder rung accepts rounds them below it. So FITC's Lam >= sigma2 and VFE's
evidence is at most DTC's on every inducing set and every leading subset of
one. The projected Bayes regressor fits the leading eigenpairs of
:func:`se_eigen_expansion` (the Hermite recurrence, with an exact
orthonormality check), and :class:`PbrFits`, its one entry, is the
projection with Sigma the inverse eigenvalues.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsyrk

from . import linalg
from .kernels import SQUARED_EXPONENTIAL, Kernel, _as_points, _check_training, gram


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
    X_U = _as_points(X_U, kernel.dim, "X_U")
    return FeatureExpansion(
        phi=lambda Xq: gram(kernel, _as_points(Xq, kernel.dim), X_U),
        Sigma=gram(kernel, X_U),
    )


# ---------------------------------------------------------------------------
# The projected regressor under every method.


class _Projection:
    """N(y; 0, F^T Sigma^{-1} F + Lam) on every leading count q of m
    features: Sigma's leading q x q block and the first q rows of F (m x N).

    With A = Sigma + F Lam^{-1} F^T and b = F Lam^{-1} y, a test point with
    features u has mean u^T A^{-1} b and plain variance u^T A^{-1} u, and the
    log evidence is -1/2 (y^T Lam^{-1} y - b^T A^{-1} b) - 1/2 (sum log Lam
    + ln|A| - ln|Sigma|) - N/2 ln(2 pi). The leading q x q block of
    L = chol(A) is chol(A_q) and forward substitution is row-incremental, so
    with v = L^{-1} b and V = L^{-1} U every count's pieces are prefix sums
    over rows: of v_i V_i and V_i^2 (:meth:`predict`), of v_i^2, and of
    2 ln L_ii for ln|A_q| and ln|Sigma_q|. ``quads[q]`` and ``dets[q]`` are
    count q's quadratic and determinant parts of the evidence, count 0 the
    prior's.

    The caller factors Sigma and fixes the failed-pivot rule: with ``cut`` A
    takes :func:`kernelcg.linalg.cholesky_with_truncation` and the counts
    end before the first failing pivot of either factor, otherwise the
    jitter ladder of :func:`kernelcg.linalg.cholesky`. Lam is a positive
    scalar, A = Sigma + F F^T / Lam by one syrk with no copy of F, or one
    variance per training point, A = Sigma + W W^T with W = F Lam^{-1/2}.
    A is written into the lower triangle of a copy of Sigma, the one both
    factorizations read. Keeps chol(A), b, v and the evidence terms only.
    """

    def __init__(self, sigma_factor: linalg.CholeskyFactor, Sigma, F, y, lam, *, cut: bool = False):
        self.n = y.size  # y is a float vector, as every fit's check returns it
        if np.ndim(lam) == 0:
            alpha, self.b = 1.0 / lam, (F @ y) / lam
            y_quad, log_lam = (y @ y) / lam, y.size * np.log(lam)
        else:
            root = np.sqrt(lam)
            F = F / root
            alpha, self.b = 1.0, F @ (y / root)
            y_quad, log_lam = y @ (y / lam), np.sum(np.log(lam))
        A = np.array(Sigma, dtype=float, order="F")
        if F.shape[0]:
            trans = not F.flags.f_contiguous  # F^T is Fortran-ordered when F is C-ordered
            A = dsyrk(alpha, F.T if trans else F, beta=1.0, c=A, trans=int(trans), lower=1, overwrite_c=1)
        self.factor = linalg.CholeskyFactor(linalg.cholesky_with_truncation(A)[0]) if cut else linalg.cholesky(A)
        q = self.count = min(sigma_factor.dim, self.factor.dim)
        L = self.factor.L[:q, :q]
        self.v = solve_triangular(L, self.b[:q], lower=True)
        logdets = np.cumsum(2.0 * np.log(np.diag(L))) - np.cumsum(2.0 * np.log(np.diag(sigma_factor.L)[:q]))
        self.quads = -0.5 * (y_quad - np.concatenate(([0.0], np.cumsum(np.square(self.v)))))
        self.dets = -0.5 * (log_lam + np.concatenate(([0.0], logdets)))

    def evidence(self, q: int) -> float:
        """The log evidence of count q."""
        return float(self.quads[q] + self.dets[q] - 0.5 * self.n * np.log(2.0 * np.pi))

    def predict(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row q - 1 of each output is count q's mean and plain variance at
        the points whose features are U's columns, for every count up to U's
        rows (at most ``count``). Holds two arrays of U's shape besides U."""
        return linalg.chol_prefix_reads(self.factor, U, self.v)


def _nystrom_gaps(factor: linalg.CholeskyFactor, U: np.ndarray, theta_f: float, *, overwrite=False) -> np.ndarray:
    """Row q - 1 is theta_f - diag(U_q^T Sigma_q^{-1} U_q) clamped at 0,
    Sigma = L L^T: the prior variance the count-q Nystrom kernel misses at
    the points whose features are U's columns. ``overwrite`` as in
    :func:`kernelcg.linalg.chol_prefix_reads`."""
    gaps = linalg.chol_prefix_reads(factor, U, overwrite=overwrite)[1]
    return np.maximum(np.subtract(theta_f, gaps, out=gaps), 0.0, out=gaps)


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

    The rank-c regressor is the :class:`_Projection` on the leading c
    eigenpairs, with F = phi(X)^T, Sigma the inverse eigenvalues and
    Lam = sigma2: Sigma is diagonal, so its leading blocks are the lower
    ranks' and one projection serves every rank. The first :meth:`predict`
    (again if it raised) checks X, y, sigma2 and X*'s shape (a vector X is
    N points; :func:`kernelcg.kernels._check_training`), evaluates phi(X)
    and phi(X*), factors A and forward-substitutes phi(X*)^T, once.
    """

    def __init__(self, expansion: EigenExpansion, X, y, sigma2: float, X_star):
        self.expansion, self.X, self.y, self.sigma2, self.X_star = expansion, X, y, sigma2, X_star

    @cached_property
    def _means(self) -> np.ndarray:
        """Row c - 1 is the rank-c mean at X*."""
        dim = np.shape(self.X)[1] if np.ndim(self.X) == 2 else 1
        X, y, sigma2 = _check_training(self.X, self.y, self.sigma2, dim)
        X_star = _as_points(self.X_star, X.shape[1], "X_star")
        phi, inverse = self.expansion.phi, 1.0 / self.expansion.eigenvalues
        fit = _Projection(linalg.CholeskyFactor(np.diag(np.sqrt(inverse))), np.diag(inverse),
                          np.asarray(phi(X), dtype=float).T, y, sigma2)
        return fit.predict(np.asarray(phi(X_star), dtype=float).T)[0]

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
    computed once, at the full count M, and so is chol(K_UU), whose leading
    blocks are every count's. sor, dtc and vfe share one :class:`_Projection`
    with Lam = sigma2, which gives every count's mean, plain variance and
    evidence. The prior defect at X* and the Nystrom gap diag(K - Q) at the
    training inputs are :func:`_nystrom_gaps` of phi(X*)^T and Phi at every
    count. fitc's Lam = gap + sigma2 depends on m: it makes one projection
    per count, on the leading block of chol(K_UU), and reads its last row.
    Each shared piece is computed by the first :meth:`predict` that needs
    it (again if it raised), the first of all after checking X, y, sigma2
    (:func:`kernelcg.kernels._check_training`) and X*'s shape.

    Jitter: K_UU and the shared A each run one jitter ladder, at the full
    count, and every count carries the rung it stopped at, since the
    leading block of chol(K + j I) is chol(K_m + j I); a fit on X_U[:m]
    alone may stop at a lower rung. fitc's A runs a ladder per count.

    Memory: besides the inputs, two M x N arrays (Phi and the gaps) and
    four M x n* ones (phi(X*), the defects, the means and the plain
    variances); each projection adds A and two m x n* arrays while it
    predicts, fitc's its W = Phi_m Lam^{-1/2} (m x N) too, and fitc's last
    rows outlive it. No N x N and no n* x n* array: at N 1500, n* 500 and
    M 123 the peak is 7.5 MB, against 18 MB for one N x N array.
    """

    def __init__(self, kernel: Kernel, X, y, sigma2: float, X_U, X_star):
        self.kernel, self.X, self.y, self.sigma2, self.X_U, self.X_star = kernel, X, y, sigma2, X_U, X_star

    @cached_property
    def _basis(self) -> tuple[FeatureExpansion, linalg.CholeskyFactor, np.ndarray]:
        """The expansion, chol(K_UU) and Phi = K_UN, after the input checks."""
        self.X, self.y, self.sigma2 = _check_training(self.X, self.y, self.sigma2, self.kernel.dim)
        self.X_star = _as_points(self.X_star, self.kernel.dim, "X_star")
        expansion = sor_expansion(self.kernel, self.X_U)
        return expansion, linalg.cholesky(expansion.Sigma), expansion.phi(self.X).T

    @cached_property
    def _phi_star(self) -> np.ndarray:
        return np.asarray(self._basis[0].phi(self.X_star), dtype=float)

    @cached_property
    def _defects(self) -> np.ndarray:
        return _nystrom_gaps(self._basis[1], self._phi_star.T, self.kernel.theta_f)

    @cached_property
    def _gaps(self) -> np.ndarray:
        return _nystrom_gaps(self._basis[1], self._basis[2], self.kernel.theta_f)

    def _fit(self, lam, m: int) -> tuple[_Projection, np.ndarray, np.ndarray]:
        """The projection on the first m inducing points with noise lam, and
        its means and plain variances at X* at every count up to m."""
        expansion, factor, Phi = self._basis
        fit = _Projection(linalg.CholeskyFactor(factor.L[:m, :m], factor.jitter), expansion.Sigma[:m, :m],
                          Phi[:m], self.y, lam)
        return (fit, *fit.predict(self._phi_star[:, :m].T))

    @cached_property
    def _shared(self) -> tuple[_Projection, np.ndarray, np.ndarray]:
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
        size = self._basis[1].dim
        m = size if count is None else int(count)
        if not (1 <= m <= size):
            raise ValueError(f"count must be in [1, {size}]")
        fit, means, plains = self._fit(self._gaps[m - 1] + self.sigma2, m) if method == "fitc" else self._shared
        mean, plain, evidence = means[m - 1].copy(), plains[m - 1], fit.evidence(m)
        if method == "sor":
            return mean, plain.copy(), evidence
        if method == "vfe":
            evidence -= 0.5 * float(np.sum(self._gaps[m - 1])) / self.sigma2
        return mean, self._defects[m - 1] + plain, evidence
