"""Exact Gaussian-process regression via a full Cholesky factorization.

This is the O(N^3) ground truth that every approximation in this package is
measured against; it is intentionally limited to desk-scale problems. Its
memory is one N x N array of floats (8 GiB at N = 32,768): the Gram
K + sigma2 I is factored in its own memory, and :func:`predict_mean` and
:func:`predict_var` add one block of k(X*, X) for ceil(N / 8) test points at
a time, so at every n* the oracle peaks at 9/8 N^2 floats plus O(N + n*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .kernels import Kernel, _as_points, _check_sigma2, gram


@dataclass(frozen=True)
class ExactGpModel:
    kernel: Kernel
    X: np.ndarray
    y: np.ndarray
    sigma2: float
    factor: linalg.CholeskyFactor
    alpha: np.ndarray  # (K + sigma2 I)^{-1} y


def fit(kernel: Kernel, X, y, sigma2: float) -> ExactGpModel:
    """Factorize K + sigma2 * I and precompute the weight vector alpha.

    The Gram is factored in place (:func:`kernelcg.linalg.cholesky` with
    ``in_place=True`` on its F-ordered view), so the model's factor is the
    Gram's own memory. Memory ceiling: the N x N factor and a few N-vectors.
    """
    X = _as_points(X, kernel.dim)
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.size or y.size < 1:
        raise ValueError(f"inconsistent training set: {X.shape[0]} inputs, {y.size} targets")
    sigma2 = _check_sigma2(sigma2)
    K = gram(kernel, X)
    K[np.diag_indices_from(K)] += sigma2
    factor = linalg.cholesky(K.T, in_place=True)  # K is bit-symmetric, K.T its F-ordered view
    alpha = linalg.chol_solve(factor, y)
    return ExactGpModel(kernel=kernel, X=X, y=y, sigma2=sigma2, factor=factor, alpha=alpha)


def _over_blocks(model: ExactGpModel, X_star, reduce: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """reduce(k(X*_block, X)) for each block of ceil(N / 8) test points, in order.

    A block is a temporary of the call, so it is freed before the next one
    is built: N ceil(N / 8) floats at a time beside the N x N factor, the
    width of each triangular solve growing with N.
    """
    X_star = _as_points(X_star, model.kernel.dim)
    cols = -(-model.X.shape[0] // 8)
    out = np.empty(X_star.shape[0])
    for start in range(0, X_star.shape[0], cols):
        out[start : start + cols] = reduce(gram(model.kernel, X_star[start : start + cols], model.X))
    return out


def predict_mean(model: ExactGpModel, X_star) -> np.ndarray:
    """Posterior mean k(x*, X) @ alpha for every test point.

    Blocked over test points as :func:`predict_var`: memory beyond the
    factor is one block of k(X*, X) for ceil(N / 8) test points and the
    output, so fit and predict peak at 9/8 N^2 floats plus O(N + n*) at
    every n*; no n* x N array.
    """
    return _over_blocks(model, X_star, lambda K_s: K_s @ model.alpha)


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
    Blocked over ceil(N / 8) test points at a time: each block of k(X, X*)
    is formed as k(X*_block, X).T, bit-equal to k(X, X*_block) and
    F-ordered, and solved and squared in its own memory
    (:func:`kernelcg.linalg.chol_quad_diag` with ``overwrite=True``).
    Memory beyond the factor: the output, one block, and the finiteness
    check of the block (a byte per entry), so fit and predict peak at
    9/8 N^2 floats plus N^2 / 8 bytes and O(N + n*) at every n*;
    O(N^2 n*) flops; no N x n* or n* x n* array.
    """
    return _over_blocks(
        model, X_star, lambda K_s: model.kernel.theta_f - linalg.chol_quad_diag(model.factor, K_s.T, overwrite=True)
    )


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
