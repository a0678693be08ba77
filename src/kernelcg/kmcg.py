"""Kernel machine conjugate gradients: a low-rank kernel learned from CG.

The estimator treats the kernel as a latent bivariate function. Running
reorthogonalized CG on the inducing Gram K_M (without the noise term, since
the object of interest is the kernel itself) produces search directions
S = [s_1 .. s_P] and products Z = K_M S, which act as linear observations of
the kernel. Under a Gaussian model over bivariate functions whose covariance
factorizes over argument pairs, the posterior mean is the rank-P kernel

    khat(x, z) = k(x, X_M) S (S^T K_M S)^{-1} S^T k(X_M, z)

and mean, covariance and evidence of the resulting GP regressor have closed
forms in terms of two small Cholesky factors, L1 = chol(S^T Z) and
L2 = chol(sigma2 S^T Z + R^T R) with R = k(X, X_M) S (R is Z itself when
M = N):

    mean(x*)    = k(x*, X_M) S (R^T R + sigma2 S^T K_M S)^{-1} R^T y
    cov(x*,x**) = k(x*,x**) - khat-prior term + sigma2-weighted L2 term
    evidence    = -(1/2 sigma2)(y^T y - y^T R w) - 1/2 ln|R^T R + sigma2 S^T K_M S|
                  + 1/2 ln|S^T K_M S| - (N-P)/2 ln sigma2 - N/2 ln(2 pi)

At P = M the directions span everything and the kernel reduces to the
subset-of-regressors kernel with X_U = X_M; at M = N, P = N the regressor is
exact. Only the span of S matters: right-multiplying S by any invertible
matrix leaves all predictions unchanged.

The models of several step budgets from one trace are leading slices of the
longest budget's (see :func:`kmcg_models_for_steps`): S, Z and R are its
leading columns and L1, L2 the leading blocks of its factors. Forward
substitution is row-incremental, so with u = S^T k(X_M, x*) the first q rows
of L1^{-1} u and L2^{-1} u are those of the q-direction model. Every budget's
pointwise variance is a prefix sum of squared rows,

    var_q(x*) = theta_f - sum_{i<q} (L1^{-1} u)_i^2 + sigma2 sum_{i<q} (L2^{-1} u)_i^2

and :func:`kmcg_predictions` reads every budget's mean and variance off one
pass over k(X*, X_M).

Every k(., X_M) W a model forms (R at M < N, and all prediction and
learned-kernel features) is contracted without building k(., X_M) whole.
On scattered inducing points it is assembled in row blocks of at most
max(2^21, M) entries (16 MiB). With an SE kernel on inducing points laid
out exactly as a row-major Cartesian grid
(:func:`kernelcg.structured.grid_axes`, checked once per fit) no M-length
row is formed at all: k(x, X_M) is k_1(x_1, axis_1) kron t(x) with t(x) the
Kronecker product of the trailing axes' kernel rows, M / G_1 entries, so
k(x, X_M) W is the sum over the G_1 first-axis values j of
k_1(x_1, axis_1)_j t(x)^T W_j, W_j the j-th slab of M / G_1 rows of W
(GridSpec.cross_products). The products equal the dense path's up to
rounding, and the scratch per block of test points is their per-axis rows,
trailing rows and one GEMM result. Matern kernels, scattered points and
random subsets with M < N take the dense path.

The prior over the kernel has zero mean and a covariance generated by the
data kernel itself, times a positive `prior_scale`. The scale cancels from
mean, covariance, learned kernel and evidence; it only multiplies the
posterior uncertainty over the kernel. :class:`KernelPosterior` is that
posterior (``KmcgModel.posterior``); :func:`kernel_posterior` builds it for
any full-rank S, optionally around a nonzero prior mean mu0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg
from .kernels import _CROSS_BLOCK_ENTRIES, SQUARED_EXPONENTIAL, Kernel, _as_points, gram
from .lowrank import choose_inducing
from .solvers import MvmOperator, cg_reorth, dense_operator, stop_reason_within
from .structured import GridSpec, grid_axes, grid_spec


@dataclass(frozen=True)
class KmcgModel:
    kernel: Kernel
    X: np.ndarray
    y: np.ndarray
    sigma2: float
    X_M: np.ndarray
    S: np.ndarray  # M x P search directions (after truncation)
    Z: np.ndarray  # M x P products K_M S, reused from the CG trace
    R: np.ndarray  # N x P cross products k(X, X_M) S; the same object as Z when M = N
    factor1: Optional[linalg.CholeskyFactor]  # chol(S^T Z)
    factor2: Optional[linalg.CholeskyFactor]  # chol(sigma2 S^T Z + R^T R)
    mean_weights: np.ndarray  # S (R^T R + sigma2 S^T K_M S)^{-1} R^T y, length M
    steps: int  # effective P after truncation
    cg_steps: int  # directions the solver produced within the budget
    reason: str  # why CG stopped within the budget: converged, maxsteps or breakdown
    prior_scale: float  # scale of the prior over the kernel
    grid: Optional[GridSpec]  # X_M's grid when the kernel is SE and X_M a Cartesian grid, else None

    @property
    def posterior(self) -> KernelPosterior:
        """The posterior over the kernel given this fit's directions, from its own factor1."""
        return KernelPosterior(self.kernel, self.X_M, self.S, self.factor1, self.grid, self.prior_scale)


@dataclass(frozen=True)
class KernelPosterior:
    """Gaussian posterior over the kernel given projected Gram observations S^T k(X_U, X_U) S.

    The prior has mean mu0 (zero when None) and covariance
    cov(k(a,b), k(c,d)) = scale/2 (k(a,c) k(b,d) + k(a,d) k(b,c)) (Hennig &
    Kiefel, 2013). With L = `factor` = chol(S^T K_U S) (None when P = 0) and
    V(A) = L^{-1} S^T k(X_U, A), built by _cross_products, the learned kernel
    is khat(A, B) = V(A)^T V(B). The posterior mean is
    mu0(A, B) + V(A)^T C V(B) with C = I - L^{-1} S^T mu0(X_U, X_U) S L^{-T},
    which is khat for a zero prior mean; the covariance is the prior's with
    khat subtracted in place of k.
    """

    kernel: Kernel
    X_U: np.ndarray
    S: np.ndarray
    factor: Optional[linalg.CholeskyFactor]
    grid: Optional[GridSpec]
    prior_scale: float
    mu0: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def _features(self, A) -> np.ndarray:
        U = _cross_products(self.kernel, A, self.X_U, self.grid, self.S).T
        return solve_triangular(self.factor.L, U, lower=True)

    def _inner(self, A, B=None, C=None) -> np.ndarray:
        """V(A)^T C V(B) (C = I when None), bit-symmetric when B is None."""
        A = _as_points(A, self.kernel.dim)
        same = B is None
        B = A if same else _as_points(B, self.kernel.dim)
        if self.factor is None:
            return np.zeros((A.shape[0], B.shape[0]))
        Va = self._features(A)
        Vb = Va if same else self._features(B)
        out = Va.T @ (Vb if C is None else C @ Vb)
        if same:
            out = 0.5 * (out + out.T)
        return out

    def mean(self, A, B=None) -> np.ndarray:
        """The posterior mean of k(A, B), B defaulting to A: khat(A, B) when mu0 is None."""
        if self.mu0 is None:
            return self._inner(A, B)
        A = _as_points(A, self.kernel.dim)
        B = A if B is None else _as_points(B, self.kernel.dim)
        H = solve_triangular(self.factor.L, self.S.T, lower=True)
        C = np.eye(H.shape[0]) - H @ self.mu0(self.X_U, self.X_U) @ H.T
        return self.mu0(A, B) + self._inner(A, B, C)

    def var(self, A) -> np.ndarray:
        """Entry (i, j) is the posterior variance of k(a_i, a_j), i.e. cov(A)[i, j, i, j]."""
        return self._cov(A, pairwise=True)

    def cov(self, A) -> np.ndarray:
        """Entry (i, j, k, l) is the posterior covariance of k(a_i, a_j) and k(a_k, a_l); n^4 floats."""
        return self._cov(A, pairwise=False)

    def _cov(self, A, pairwise) -> np.ndarray:
        """scale/2 (k_ac k_bd + k_ad k_bc - khat_ac khat_bd - khat_ad khat_bc) from k(A, A) and khat(A, A).

        Nonnegative up to roundoff for (a, b) = (c, d), and zero exactly where
        the kernel is fully identified.
        """
        A = _as_points(A, self.kernel.dim)
        i = np.arange(A.shape[0])
        a, b, c, d = 2 * np.ix_(i, i) if pairwise else np.ix_(i, i, i, i)
        K, G = gram(self.kernel, A), self._inner(A)
        prior = K[a, c] * K[b, d] + K[a, d] * K[b, c]
        return 0.5 * self.prior_scale * (prior - (G[a, c] * G[b, d] + G[a, d] * G[b, c]))

    def sample(self, A, rng: np.random.Generator, size=None) -> np.ndarray:
        """Draw k(A, A) from the posterior via the symmetric Kronecker factorization (linalg.sym_kron_sample).

        An integer `size` gives a (size, n, n) stack of draws that share one
        pair of factorizations.
        """
        A = _as_points(A, self.kernel.dim)
        khat = self._inner(A)
        draw = linalg.sym_kron_sample(gram(self.kernel, A), khat, rng, size)
        return (khat if self.mu0 is None else self.mean(A)) + np.sqrt(self.prior_scale) * draw


def kernel_posterior(kernel: Kernel, X_U, S, mu0=None) -> KernelPosterior:
    """The posterior over `kernel` given S^T k(X_U, X_U) S, at prior scale 1.

    S (M x P) must have full column rank: S^T K_U S is factored with no
    jitter. mu0 is None (zero prior mean) or a callable (A, B) -> matrix of
    prior-mean values. With mu0 = None and S = I the posterior mean is the
    subset-of-regressors kernel on X_U.
    """
    X_U = _as_points(X_U, kernel.dim)
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != X_U.shape[0]:
        raise ValueError(f"S must be M x P with M = {X_U.shape[0]}, got {S.shape}")
    G = S.T @ _cross_products(kernel, X_U, X_U, None, S)
    factor = linalg.cholesky(0.5 * (G + G.T), jitter_ladder=())
    return KernelPosterior(kernel, X_U, S, factor, None, 1.0, mu0)


def _cross_products(kernel, X, X_M, grid, W) -> np.ndarray:
    """k(X, X_M) W without the full cross-Gram k(X, X_M).

    W is a vector or a matrix with M rows. When `grid` is the GridSpec of
    X_M (an SE kernel on a row-major Cartesian grid, see
    :func:`kernelcg.structured.grid_axes`) this is
    GridSpec.cross_products, which contracts per-axis rows with W one
    first-axis slab at a time and never forms an M-length row. Otherwise
    `gram` builds k(X, X_M) in row blocks of all M columns, each of which
    re-reads W once; memory is the output plus one block of at most
    max(_CROSS_BLOCK_ENTRIES, M) floats. With W = S the transposed output
    is U = S^T k(X_M, X), the P x n features every prediction shares, as an
    F-ordered view that `solve_triangular` takes as is.
    """
    if grid is not None:
        return grid.cross_products(X, W)
    rows = max(1, _CROSS_BLOCK_ENTRIES // X_M.shape[0])
    out = np.empty((X.shape[0],) + W.shape[1:])
    for start in range(0, X.shape[0], rows):
        block = X[start : start + rows]
        out[start : start + rows] = gram(kernel, block, X_M) @ W
    return out


def _fit_budgets(kernel, X, y, sigma2, budgets, M, eps, seed, operator, prior_scale) -> list[KmcgModel]:
    """One model per step budget, all from one CG trace and one pair of factors.

    CG directions are incremental: the first p directions of a run to
    max(budgets) are exactly the directions of a p-step run. The leading
    p x p block of a Cholesky factor is the factor of the leading block, so
    the two truncating factorizations of S^T Z and sigma2 S^T Z + R^T R at
    the trace's full length hold every budget's factors. CG direction
    matrices lose conditioning in floating point; a budget keeps only the
    directions before the first pivot that fails in either factorization.
    A budget of None means M; a negative budget raises ValueError.

    With an SE kernel, X_M is checked once for an exact Cartesian grid
    (:func:`kernelcg.structured.grid_axes`); the models keep its GridSpec,
    and every k(., X_M) they build is then a per-axis product.
    """
    if not (prior_scale > 0.0):
        raise ValueError("prior_scale must be positive")
    X = _as_points(X, kernel.dim)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = X.shape[0]
    if y.size != n:
        raise ValueError(f"{n} inputs but {y.size} targets")
    if not (sigma2 > 0.0):
        raise ValueError("sigma2 must be positive")
    sigma2 = float(sigma2)
    M = n if M is None else int(M)
    budgets = [M if p is None else int(p) for p in budgets]
    if min(budgets) < 0:
        raise ValueError(f"step budgets must be at least 0, got {min(budgets)}")
    idx = choose_inducing(n, M, seed)
    X_M = X[idx]
    y_M = y[idx]
    if operator is None:
        operator = dense_operator(gram(kernel, X_M))
    elif operator.dim != M:
        raise ValueError(f"operator dim {operator.dim} does not match inducing size {M}")
    axes = grid_axes(X_M) if kernel.family == SQUARED_EXPONENTIAL else None
    grid = None if axes is None else grid_spec(kernel, axes)

    trace = cg_reorth(operator, y_M, eps=eps, max_steps=min(max(budgets), M))
    S, Z = trace.S, trace.Z
    shared = M == n
    R = Z if shared else _cross_products(kernel, X, X_M, grid, S)
    A1 = S.T @ Z
    A1 = 0.5 * (A1 + A1.T)
    L1, ok1 = linalg.cholesky_with_truncation(A1)
    A2 = sigma2 * A1 + R.T @ R
    A2 = 0.5 * (A2 + A2.T)
    L2, ok2 = linalg.cholesky_with_truncation(A2)
    Ry = R.T @ y

    models = []
    for p in budgets:
        q = min(p, trace.steps, ok1, ok2)
        S_q, Z_q = S[:, :q], Z[:, :q]
        if q:
            factor1 = linalg.CholeskyFactor(L1[:q, :q].copy())
            factor2 = linalg.CholeskyFactor(L2[:q, :q].copy())
            mean_weights = S_q @ linalg.chol_solve(factor2, Ry[:q])
        else:
            factor1 = factor2 = None
            mean_weights = np.zeros(M)
        models.append(KmcgModel(
            kernel=kernel, X=X, y=y, sigma2=sigma2, X_M=X_M,
            S=S_q, Z=Z_q, R=Z_q if shared else R[:, :q], factor1=factor1, factor2=factor2,
            mean_weights=mean_weights, steps=q, cg_steps=min(p, trace.steps),
            reason=stop_reason_within(trace, p), prior_scale=prior_scale, grid=grid,
        ))
    return models


def kmcg_fit(
    kernel: Kernel,
    X,
    y,
    sigma2: float,
    M: Optional[int] = None,
    eps=None,
    max_steps=None,
    seed=0,
    operator: Optional[MvmOperator] = None,
    prior_scale: float = 1.0,
) -> KmcgModel:
    """Collect CG directions on the inducing Gram and build the estimator.

    The inducing subset X_M is all of X when M = N, otherwise a uniform
    draw without replacement governed by `seed`. CG runs on K_M y_M = ...
    from x0 = 0 for at most min(max_steps, M) steps (max_steps defaults to
    M) with eps defaulting to 0.01 ||y_M||; its solution is discarded, only
    the directions matter. A structured `operator` may replace the dense
    Gram product (it must apply v -> K_M v). `prior_scale` must be positive
    (see the module docstring).
    """
    (model,) = _fit_budgets(kernel, X, y, sigma2, (max_steps,), M, eps, seed, operator, prior_scale)
    return model


def kmcg_models_for_steps(
    kernel: Kernel,
    X,
    y,
    sigma2: float,
    steps,
    M: Optional[int] = None,
    eps=None,
    seed=0,
    operator: Optional[MvmOperator] = None,
    prior_scale: float = 1.0,
) -> dict[int, KmcgModel]:
    """Models for several step budgets from a single CG trace.

    Each model is the one ``kmcg_fit(..., max_steps=p)`` builds, up to
    rounding in the last bits, with the same cg_steps and reason.
    :func:`kmcg_predictions` predicts with all of them from one pass.
    """
    steps = [int(p) for p in steps]
    models = _fit_budgets(kernel, X, y, sigma2, steps, M, eps, seed, operator, prior_scale)
    return dict(zip(steps, models))


def kmcg_kernel_gram(model: KmcgModel, A, B=None) -> np.ndarray:
    """Gram matrix of the learned kernel khat on two point sets (B defaults to A)."""
    return model.posterior.mean(A, B)


def kmcg_mean(model: KmcgModel, X_star) -> np.ndarray:
    """Posterior mean prediction k(x*, X_M) @ mean_weights per test point."""
    X_star = _as_points(X_star, model.kernel.dim)
    return _cross_products(model.kernel, X_star, model.X_M, model.grid, model.mean_weights)


def kmcg_var(model: KmcgModel, X_star, X_star2=None) -> np.ndarray:
    """Predictive covariance with the exact kernel restored in the prior term."""
    X_star = _as_points(X_star, model.kernel.dim)
    same = X_star2 is None
    X_star2 = X_star if same else _as_points(X_star2, model.kernel.dim)
    K_ss = gram(model.kernel, X_star, X_star2)
    if model.steps == 0:
        return K_ss
    Ua = _cross_products(model.kernel, X_star, model.X_M, model.grid, model.S).T
    Ub = Ua if same else _cross_products(model.kernel, X_star2, model.X_M, model.grid, model.S).T
    V1a = solve_triangular(model.factor1.L, Ua, lower=True)
    V1b = V1a if same else solve_triangular(model.factor1.L, Ub, lower=True)
    V2a = solve_triangular(model.factor2.L, Ua, lower=True)
    V2b = V2a if same else solve_triangular(model.factor2.L, Ub, lower=True)
    return K_ss - V1a.T @ V1b + model.sigma2 * (V2a.T @ V2b)


def kmcg_predictions(models, X_star) -> list[tuple[np.ndarray, np.ndarray]]:
    """(mean, pointwise variance) at X_star for each of several models of one fit.

    The models come from one :func:`kmcg_models_for_steps` fit, any of them
    in any order: every X_M is the longest model's and every S the leading
    columns of the longest model's S. One pass over k(X*, X_M) gives every
    mean and U = S^T k(X_M, X*) of the longest model; one forward
    substitution of U with each of its two factors gives every variance as
    theta_f - ||L1_q^{-1} U_q||^2 + sigma2 ||L2_q^{-1} U_q||^2, a prefix sum
    of squared rows (see the module docstring), with k(x, x) = theta_f
    (every stationary kernel here).

    For k models and P directions in the longest this costs
    O(n* M (k + P) + n* P^2) flops; memory is the n* x (k + P) products,
    three P x n* arrays, the outputs and the scratch of one block of
    _cross_products: no k(X*, X*) and no n* x n* product.

    Raises:
        ValueError: if a model's X_M or S is not the longest model's.
    """
    longest = max(models, key=lambda model: model.steps)
    for model in models:
        if not np.array_equal(model.X_M, longest.X_M):
            raise ValueError("the models have different inducing points; they must come from one fit")
        if not np.array_equal(model.S, longest.S[:, : model.steps]):
            raise ValueError("a model's directions are not the leading columns of the longest model's")
    X_star = _as_points(X_star, longest.kernel.dim)
    W = np.column_stack([model.mean_weights for model in models] + [longest.S])
    products = _cross_products(longest.kernel, X_star, longest.X_M, longest.grid, W)
    if longest.steps:
        U = products[:, len(models) :].T
        lost = _prefix_quad_diag(longest.factor1, U)
        gained = _prefix_quad_diag(longest.factor2, U)
    theta_f = longest.kernel.theta_f
    out = []
    for i, model in enumerate(models):
        q = model.steps
        if q:
            var = theta_f - lost[q - 1] + model.sigma2 * gained[q - 1]
        else:
            var = np.full(X_star.shape[0], theta_f)
        out.append((products[:, i].copy(), var))
    return out


def _prefix_quad_diag(factor: linalg.CholeskyFactor, U: np.ndarray) -> np.ndarray:
    """Row q - 1 is the diagonal of U_q^T (L_q L_q^T)^{-1} U_q, for every q.

    L_q^{-1} U_q is the first q rows of L^{-1} U, so these are the running
    sums of its squared rows; the last row is the sum linalg.chol_quad_diag
    takes, up to its summation order.
    """
    V = solve_triangular(factor.L, U, lower=True)
    return np.cumsum(np.square(V, out=V), axis=0)


def kmcg_evidence(model: KmcgModel) -> float:
    """Log evidence of the learned-kernel regressor.

    This is the degenerate-model evidence for features S^T k(X_M, .) with
    inner matrix S^T K_M S; with M = N and a complete direction set it
    coincides with the exact log marginal likelihood.
    """
    quad_term, det_term = kmcg_evidence_terms(model)
    n = model.y.size
    return quad_term + det_term - 0.5 * n * np.log(2.0 * np.pi)


def kmcg_evidence_terms(model: KmcgModel) -> tuple[float, float]:
    """The quadratic-form and determinant parts of the log evidence.

    Split so the two can be compared separately against the exact oracle's
    -1/2 y^T alpha and -1/2 ln|K + sigma2 I|.
    """
    n = model.y.size
    y = model.y
    if model.steps == 0:
        quad = float(y @ y)
        det = -0.5 * n * np.log(model.sigma2)
        return -0.5 * quad / model.sigma2, det
    w = linalg.chol_solve(model.factor2, model.R.T @ y)
    quad = float(y @ y - (model.R.T @ y) @ w)
    det = (
        -0.5 * linalg.logdet(model.factor2)
        + 0.5 * linalg.logdet(model.factor1)
        - 0.5 * (n - model.steps) * np.log(model.sigma2)
    )
    return -0.5 * quad / model.sigma2, det


def kmcg_uncertainty_gram(model: KmcgModel, X_s) -> np.ndarray:
    """Pairwise posterior kernel variances over one point set (KernelPosterior.var)."""
    return model.posterior.var(X_s)


# Posterior kernel variances below this multiple of prior_scale * theta_f^4
# are rounding noise; see error_bound_ratio.
_VAR_RESOLUTION = 1e-8


def error_bound_ratio(model: KmcgModel, X_s, K_true) -> np.ndarray:
    """Squared kernel error over its posterior variance on every pair of X_s.

    K_true is the true Gram on X_s. Near full identification the variance is
    a cancellation of products of scale prior_scale * theta_f^4 and can
    round to zero or below while the squared error sits at the same rounding
    scale. The variance is therefore taken as at least the resolution floor
    1e-8 * prior_scale * theta_f^4, so 0/0 gives 0; a resolvable variance is
    used as is.
    """
    err2 = (np.asarray(K_true, dtype=float) - kmcg_kernel_gram(model, X_s)) ** 2
    floor = _VAR_RESOLUTION * model.prior_scale * model.kernel.theta_f**4
    return err2 / np.maximum(kmcg_uncertainty_gram(model, X_s), floor)


def kmcg_sample(model: KmcgModel, X_s, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw a symmetric Gram matrix on X_s from the posterior over the kernel (KernelPosterior.sample).

    An integer `size` gives a stack of that many draws.
    """
    return model.posterior.sample(X_s, rng, size)
