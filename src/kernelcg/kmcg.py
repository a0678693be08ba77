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
L2 = chol(S^T Z + R^T R / sigma2) with R = k(X, X_M) S (R is Z itself when
M = N), and u = S^T k(X_M, x*):

    mean(x*)    = u^T (S^T Z + R^T R / sigma2)^{-1} R^T y / sigma2
    cov(x*,x**) = k(x*,x**) - u^T (L1 L1^T)^{-1} u** + u^T (L2 L2^T)^{-1} u**
    evidence    = -1/2 (y^T y / sigma2 - |L2^{-1} R^T y / sigma2|^2) - 1/2 ln|L2 L2^T|
                  + 1/2 ln|S^T K_M S| - N/2 ln sigma2 - N/2 ln(2 pi)

KMCG is the projection of :class:`kernelcg.lowrank._Projection` with
Sigma = S^T Z, F = R^T and Lam = sigma2: DTC (Quinonero-Candela &
Rasmussen, 2005) with the features S^T k(X_M, .), whose Nystrom kernel is
khat and whose A is L2 L2^T. At P = M the directions span everything and
the kernel reduces to the subset-of-regressors kernel with X_U = X_M; at
M = N, P = N the regressor is exact. Only the span of S matters:
right-multiplying S by any invertible matrix leaves all predictions
unchanged. With no directions both factors are 0 x 0 and every formula
gives the prior: zero mean and khat, the prior covariance, and the evidence
of y under sigma2 I.

The models of several step budgets from one trace are leading slices of the
longest budget's (see :func:`kmcg_models_for_steps`): S, Z and R are its
leading columns, L1 and L2 views of the leading blocks of its factors, and
all share its projection, whose prefix sums give every budget's mean,
variance and evidence. The variance's gap is clamped at 0
(:func:`kernelcg.lowrank._nystrom_gaps`),

    var_q(x*) = max(theta_f - sum_{i<q} (L1^{-1} u)_i^2, 0) + sum_{i<q} (L2^{-1} u)_i^2

and :func:`kmcg_predictions` reads every budget's off one pass over k(X*, X_M).

The CG operator and every k(., X_M) W a model forms (R at M < N, and all
prediction and learned-kernel features) come from one structure,
:func:`kernelcg.structured.gram_structure` of the kernel and X_M, read once
per fit: the Kronecker operator and per-axis rows on an SE grid (a fit and
its predictions then hold no M x M and no n* x M array), the masked
Toeplitz FFT product on an equispaced 1-D series, and otherwise BLAS
``spmv`` on K_M's packed lower triangle (M(M+1)/2 floats), with k(., X_M)
built in row blocks of at most max(2^21, M) entries (16 MiB) off the grid.
A caller's `operator` replaces the structure's in CG only.

The prior over the kernel has zero mean and the covariance
cov(k(a,b), k(c,d)) = 1/2 (k(a,c) k(b,d) + k(a,d) k(b,c)) generated by the
data kernel itself (Hennig & Kiefel, 2013); given S^T K_M S the posterior
has mean khat and the same covariance with khat in place of k.
:func:`kmcg_kernel_gram`, :func:`kmcg_uncertainty_gram`, :func:`kmcg_sample`
and :func:`error_bound_ratio` read it off a fit's factor1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg
from .kernels import Kernel, _as_points, _check_training, gram
from .lowrank import _nystrom_gaps, _Projection, choose_inducing
from .solvers import _check_budgets, _check_eps, cg_reorth, stop_reason_within
from .structured import GramStructure, MvmOperator, gram_structure


@dataclass(frozen=True)
class KmcgModel:
    kernel: Kernel
    y: np.ndarray
    sigma2: float
    X_M: np.ndarray
    S: np.ndarray  # M x P search directions (after truncation)
    Z: np.ndarray  # M x P products K_M S, reused from the CG trace
    R: np.ndarray  # N x P cross products k(X, X_M) S; the same object as Z when M = N
    factor1: linalg.CholeskyFactor  # chol(S^T Z), P x P: 0 x 0 with no directions
    factor2: linalg.CholeskyFactor  # chol(S^T Z + R^T R / sigma2), P x P
    mean_weights: np.ndarray  # S (S^T Z + R^T R / sigma2)^{-1} R^T y / sigma2, length M
    steps: int  # effective P after truncation
    cg_steps: int  # directions the solver produced within the budget
    reason: str  # why CG stopped within the budget: converged, maxsteps or breakdown
    structure: GramStructure  # gram_structure(kernel, X_M): every k(., X_M) W goes through it
    projection: _Projection  # the fit's, with Sigma = S^T Z and F = R^T: every budget's evidence


def _fit_budgets(kernel, X, y, sigma2, budgets, M, eps, seed, operator) -> list[KmcgModel]:
    """One model per step budget, all from one CG trace and one pair of factors.

    CG directions are incremental: the first p directions of a run to
    max(budgets) are exactly the directions of a p-step run, so one
    :class:`kernelcg.lowrank._Projection` with Sigma = S^T Z and F = R^T at
    the trace's full length, and its two truncating factorizations, hold
    every budget's factors and evidence. CG direction matrices lose
    conditioning in floating point; a budget keeps only the directions
    before the first pivot that fails in either factorization.
    A budget of None means M.

    The models share the trace's S and Z, cut to the steps taken; S lies
    over the trace's spent residual rows, so the fit holds two blocks of
    rows, not three (see :func:`kernelcg.solvers.cg_reorth`).
    """
    X, y, sigma2 = _check_training(X, y, sigma2, kernel.dim)  # all N targets, before any Gram work
    _check_eps(eps)
    n = X.shape[0]
    M = n if M is None else int(M)
    budgets = _check_budgets(budgets, M)
    idx = choose_inducing(n, M, seed)
    X_M = X[idx]
    y_M = y[idx]
    structure = gram_structure(kernel, X_M)
    if operator is None:
        operator = structure.operator()
    elif operator.dim != M:
        raise ValueError(f"operator dim {operator.dim} does not match inducing size {M}")

    trace = cg_reorth(operator, y_M, eps=eps, max_steps=min(max(budgets), M), _keep_residuals=False)
    S, Z = trace.S, trace.Z
    shared = M == n
    R = Z if shared else structure.cross_products(X, S)
    Sigma = S.T @ Z
    Sigma = 0.5 * (Sigma + Sigma.T)
    L1 = linalg.cholesky_with_truncation(Sigma)[0]
    projection = _Projection(linalg.CholeskyFactor(L1), Sigma, R.T, y, sigma2, cut=True)

    models = []
    for p in budgets:
        q = min(p, projection.count)
        S_q, Z_q = S[:, :q], Z[:, :q]
        factor2 = linalg.CholeskyFactor(projection.factor.L[:q, :q])
        models.append(KmcgModel(
            kernel=kernel, y=y, sigma2=sigma2, X_M=X_M,
            S=S_q, Z=Z_q, R=Z_q if shared else R[:, :q],
            factor1=linalg.CholeskyFactor(L1[:q, :q]), factor2=factor2,
            mean_weights=S_q @ linalg.chol_solve(factor2, projection.b[:q]), steps=q,
            cg_steps=min(p, trace.steps), reason=stop_reason_within(trace, p), structure=structure,
            projection=projection,
        ))
    return models


def kmcg_fit(kernel: Kernel, X, y, sigma2: float, M: Optional[int] = None, eps=None, max_steps=None, seed=0,
             operator: Optional[MvmOperator] = None) -> KmcgModel:
    """Collect CG directions on the inducing Gram and build the estimator.

    The inducing subset X_M is all of X when M = N, otherwise a uniform
    draw without replacement governed by `seed`: the first M points of one
    permutation, in its order (:func:`kernelcg.lowrank.choose_inducing`).
    CG runs on K_M y_M = ...
    from x0 = 0 for at most min(max_steps, M) steps (max_steps defaults to
    M) with eps defaulting to 0.01 ||y_M||; its solution is discarded, only
    the directions matter. The operator v -> K_M v is the one
    :func:`kernelcg.structured.gram_structure` reads off X_M (Kronecker on
    an SE grid, masked Toeplitz on an equispaced 1-D grid, dense
    otherwise); pass `operator` only to bring one of your own.

    Memory: a CG trace without residuals, its S built over their rows,
    which holds 2 P + 1 rows of M floats at most when CG runs its P =
    max_steps steps (see :func:`kernelcg.solvers.cg_reorth` for the
    buffers); the model keeps S and Z, the rows used, plus the operator's
    and, when M < N, the N x P products R. The dense operator holds K_M's
    packed lower triangle, M(M+1)/2 floats, assembled beside one block of
    rows (:func:`kernelcg.kernels.gram_lower`), so a dense fit at M = N and
    a few steps peaks near M^2 / 2 floats; the Kronecker operator of an SE
    grid (per-axis factors) and the Toeplitz one of a series (O(T) floats)
    allocate no M x M array.

    X, y and sigma2 (:func:`kernelcg.kernels._check_training`, all N
    points and targets, not only the inducing ones), eps and max_steps are
    checked before any Gram work.
    """
    (model,) = _fit_budgets(kernel, X, y, sigma2, (max_steps,), M, eps, seed, operator)
    return model


def kmcg_models_for_steps(kernel: Kernel, X, y, sigma2: float, steps, M: Optional[int] = None, eps=None, seed=0,
                          operator: Optional[MvmOperator] = None) -> dict[int, KmcgModel]:
    """Models for several step budgets from a single CG trace.

    Each model is the one ``kmcg_fit(..., max_steps=p)`` builds, up to
    rounding in the last bits, with the same cg_steps and reason.
    :func:`kmcg_predictions` predicts with all of them from one pass.

    Memory: :func:`kmcg_fit`'s at the largest budget; on a series of
    T = 4096 positions, M = N = 2048 and budget 40, below M^2 * 8 / 4 bytes.
    """
    steps = [int(p) for p in steps]
    models = _fit_budgets(kernel, X, y, sigma2, steps, M, eps, seed, operator)
    return dict(zip(steps, models))


def _features(model: KmcgModel, A) -> np.ndarray:
    """V(A) = L1^{-1} S^T k(X_M, A), P x n: the learned kernel is khat(A, B) = V(A)^T V(B)."""
    U = model.structure.cross_products(A, model.S).T
    return solve_triangular(model.factor1.L, U, lower=True)


def kmcg_kernel_gram(model: KmcgModel, A, B=None) -> np.ndarray:
    """Gram matrix of the learned kernel khat on two point sets (B defaults to A).

    khat(A, A) is bit-symmetric; before any direction khat is zero.
    """
    A = _as_points(A, model.kernel.dim)
    same = B is None
    B = A if same else _as_points(B, model.kernel.dim)
    V = _features(model, A)
    out = V.T @ (V if same else _features(model, B))
    return 0.5 * (out + out.T) if same else out


def kmcg_mean(model: KmcgModel, X_star) -> np.ndarray:
    """Posterior mean prediction k(x*, X_M) @ mean_weights per test point."""
    X_star = _as_points(X_star, model.kernel.dim)
    return model.structure.cross_products(X_star, model.mean_weights)


def kmcg_var(model: KmcgModel, X_star) -> np.ndarray:
    """Predictive covariance with the exact kernel restored in the prior term."""
    X_star = _as_points(X_star, model.kernel.dim)
    K_ss = gram(model.kernel, X_star)
    U = model.structure.cross_products(X_star, model.S).T
    V1 = solve_triangular(model.factor1.L, U, lower=True)
    V2 = solve_triangular(model.factor2.L, U, lower=True)
    return K_ss - V1.T @ V1 + V2.T @ V2


def kmcg_predictions(models, X_star) -> list[tuple[np.ndarray, np.ndarray]]:
    """(mean, pointwise variance) at X_star for each of several models of one fit.

    The models come from one :func:`kmcg_models_for_steps` fit, any of them
    in any order: every X_M, S and factor is a leading part of the longest
    model's. One pass over k(X*, X_M) gives its U = S^T k(X_M, X*), whose
    prefix reads (:func:`kernelcg.linalg.chol_prefix_reads`) give every mean
    and plain variance (the fit's projection) and gap theta_f - khat(x*, x*)
    (:func:`kernelcg.lowrank._nystrom_gaps` with factor1; module docstring),
    with k(x, x) = theta_f (every stationary kernel here).

    For P directions in the longest this costs O(n* M P + n* P^2) flops;
    memory is three P x n* arrays (U, solved in place for the gaps, and the
    projection's two), the outputs and the scratch of one block of the
    structure's cross-products: no k(X*, X*) and no n* x n* product.

    Raises:
        ValueError: if `models` is empty, or a model's projection or S is not the longest model's.
    """
    if not models:
        raise ValueError("no models given")
    longest = max(models, key=lambda model: model.steps)
    for model in models:
        if model.projection is not longest.projection:
            raise ValueError("the models come from different fits")
        if not np.array_equal(model.S, longest.S[:, : model.steps]):
            raise ValueError("a model's directions are not the leading columns of the longest model's")
    U = longest.structure.cross_products(X_star, longest.S).T
    n_star, theta_f = U.shape[1], longest.kernel.theta_f
    means, plains = longest.projection.predict(U)
    gaps = _nystrom_gaps(longest.factor1, U, theta_f, overwrite=True)
    return [(means[q - 1].copy(), gaps[q - 1] + plains[q - 1]) if q else (np.zeros(n_star), np.full(n_star, theta_f))
            for q in (model.steps for model in models)]


def kmcg_evidence(model: KmcgModel) -> float:
    """Log evidence of the learned-kernel regressor.

    This is the degenerate-model evidence for features S^T k(X_M, .) with
    inner matrix S^T K_M S; with M = N and a complete direction set it
    coincides with the exact log marginal likelihood. It is read off the
    fit's projection, with no solve.
    """
    return model.projection.evidence(model.steps)


def kmcg_evidence_terms(model: KmcgModel) -> tuple[float, float]:
    """The quadratic-form and determinant parts of the log evidence.

    Split so the two can be compared separately against the exact oracle's
    -1/2 y^T alpha and -1/2 ln|K + sigma2 I|.
    """
    return float(model.projection.quads[model.steps]), float(model.projection.dets[model.steps])


def _pair_products(K: np.ndarray) -> np.ndarray:
    """Entry (i, j) is K_ii K_jj + K_ij K_ji."""
    d = np.diag(K)
    return np.outer(d, d) + K * K.T


def kmcg_uncertainty_gram(model: KmcgModel, X_s) -> np.ndarray:
    """Entry (i, j) is the posterior variance of k(x_i, x_j) for x_i, x_j in X_s.

    That is 1/2 (k_ii k_jj + k_ij^2 - khat_ii khat_jj - khat_ij^2)
    (see the module docstring): nonnegative up to roundoff, and zero exactly
    where the kernel is fully identified.
    """
    X_s = _as_points(X_s, model.kernel.dim)
    prior = _pair_products(gram(model.kernel, X_s))
    return 0.5 * (prior - _pair_products(kmcg_kernel_gram(model, X_s)))


# Posterior kernel variances below this multiple of theta_f^4 are rounding
# noise; see error_bound_ratio.
_VAR_RESOLUTION = 1e-8


def error_bound_ratio(model: KmcgModel, X_s, K_true) -> np.ndarray:
    """Squared kernel error over its posterior variance on every pair of X_s.

    K_true is the true Gram on X_s. Near full identification the variance is
    a cancellation of products of scale theta_f^4 and can round to zero or
    below while the squared error sits at the same rounding scale. The
    variance is therefore taken as at least the resolution floor
    1e-8 * theta_f^4, so 0/0 gives 0; a resolvable variance is used as is.
    """
    err2 = (np.asarray(K_true, dtype=float) - kmcg_kernel_gram(model, X_s)) ** 2
    floor = _VAR_RESOLUTION * model.kernel.theta_f**4
    return err2 / np.maximum(kmcg_uncertainty_gram(model, X_s), floor)


def kmcg_sample(model: KmcgModel, X_s, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw a symmetric Gram matrix on X_s from the posterior over the kernel.

    The draw is khat(X_s, X_s) plus a symmetric Kronecker draw
    (linalg.sym_kron_sample). An integer `size` gives a
    (size, n, n) stack of draws that share one pair of factorizations.
    """
    X_s = _as_points(X_s, model.kernel.dim)
    khat = kmcg_kernel_gram(model, X_s)
    draw = linalg.sym_kron_sample(gram(model.kernel, X_s), khat, rng, size)
    return khat + draw
