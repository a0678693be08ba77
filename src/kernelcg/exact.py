"""Exact Gaussian-process regression via a full Cholesky factorization.

This is the O(N^3) ground truth that every approximation in this package is
measured against; it is intentionally limited to desk-scale problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .kernels import _CROSS_BLOCK_ENTRIES, Kernel, _as_points, gram


@dataclass(frozen=True)
class ExactGpModel:
    kernel: Kernel
    X: np.ndarray
    y: np.ndarray
    sigma2: float
    factor: linalg.CholeskyFactor
    alpha: np.ndarray  # (K + sigma2 I)^{-1} y


def fit(kernel: Kernel, X, y, sigma2: float) -> ExactGpModel:
    """Factorize K + sigma2 * I and precompute the weight vector alpha."""
    X = _as_points(X, kernel.dim)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.size or y.size < 1:
        raise ValueError(f"inconsistent training set: {X.shape[0]} inputs, {y.size} targets")
    if not (sigma2 > 0.0):
        raise ValueError("noise level sigma2 must be positive")
    K = gram(kernel, X)
    K[np.diag_indices_from(K)] += sigma2
    factor = linalg.cholesky(K)
    alpha = linalg.chol_solve(factor, y)
    return ExactGpModel(kernel=kernel, X=X, y=y, sigma2=float(sigma2), factor=factor, alpha=alpha)


def predict_mean(model: ExactGpModel, X_star) -> np.ndarray:
    """Posterior mean k(x*, X) @ alpha for every test point."""
    K_star = gram(model.kernel, _as_points(X_star, model.kernel.dim), model.X)
    return K_star @ model.alpha


def predict_cov(model: ExactGpModel, X_star, X_star2=None) -> np.ndarray:
    """Posterior covariance k(X*, X**) - k_*^T (K + sigma2 I)^{-1} k_**."""
    X_star = _as_points(X_star, model.kernel.dim)
    X_star2 = X_star if X_star2 is None else _as_points(X_star2, model.kernel.dim)
    K_ss = gram(model.kernel, X_star, X_star2)
    K_s = gram(model.kernel, model.X, X_star)
    K_s2 = K_s if X_star2 is X_star else gram(model.kernel, model.X, X_star2)
    return K_ss - K_s.T @ linalg.chol_solve(model.factor, K_s2)


def predict_var(model: ExactGpModel, X_star) -> np.ndarray:
    """Pointwise posterior variance (diagonal of :func:`predict_cov`).

    Uses k(x, x) = theta_f, which holds for every stationary kernel here.
    Blocked over test points: each block of k(X, X*) holds at most
    max(_CROSS_BLOCK_ENTRIES, N) entries. Memory: the output plus one block
    and one array of its size (see :func:`kernelcg.linalg.chol_quad_diag`);
    O(N^2 n*) flops; no N x n* or n* x n* array.
    """
    X_star = _as_points(X_star, model.kernel.dim)
    cols = max(1, _CROSS_BLOCK_ENTRIES // model.X.shape[0])
    out = np.empty(X_star.shape[0])
    for start in range(0, X_star.shape[0], cols):
        K_s = gram(model.kernel, model.X, X_star[start : start + cols])
        out[start : start + cols] = model.kernel.theta_f - linalg.chol_quad_diag(model.factor, K_s)
    return out


def log_evidence(model: ExactGpModel) -> float:
    """Log marginal likelihood of the training targets.

    The determinant term ln|2 pi (K + sigma2 I)| is evaluated in the expanded
    form -1/2 y^T alpha - 1/2 ln|K + sigma2 I| - N/2 ln(2 pi), which avoids
    forming the 2-pi-scaled matrix.
    """
    n = model.y.size
    return float(
        -0.5 * model.y @ model.alpha
        - 0.5 * linalg.logdet(model.factor)
        - 0.5 * n * np.log(2.0 * np.pi)
    )
