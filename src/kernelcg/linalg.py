"""Dense linear algebra core and symmetric-Kronecker calculus.

Kronecker-structured operators are kept in factored form and applied
implicitly; the full N^2 x N^2 matrices are never materialized here.
Row-major vectorization is used throughout: ``vecm`` stacks the rows of a
matrix (column stacking would be an equivalent convention, we fix rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when a matrix cannot be factorized even after the jitter ladder."""


# Jitter ladder: relative to mean(diag), starting at 1e-12 and escalating
# tenfold until 1e-4. Attempt 0 uses no jitter at all.
JITTER_LADDER = tuple(10.0 ** e for e in range(-12, -3))


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T = A + jitter * I."""

    L: np.ndarray
    jitter: float = 0.0

    @property
    def dim(self) -> int:
        return self.L.shape[0]


def cholesky(A: np.ndarray, jitter_ladder=JITTER_LADDER) -> CholeskyFactor:
    """Factorize a symmetric matrix, escalating diagonal jitter on failure.

    The ladder is relative to the mean diagonal entry; for matrices with a
    zero diagonal (e.g. an all-zero difference of covariances) an absolute
    scale of 1 is used instead so the ladder still terminates.

    Raises:
        NotPositiveDefiniteError: if no rung of the ladder succeeds.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    scale = float(np.mean(np.diag(A))) if A.size else 0.0
    if scale <= 0.0:
        scale = 1.0
    for jitter in (0.0, *[scale * rung for rung in jitter_ladder]):
        shifted = A
        if jitter:
            shifted = A.copy()
            shifted[np.diag_indices_from(shifted)] += jitter
        try:
            L = np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        return CholeskyFactor(L=L, jitter=jitter)
    raise NotPositiveDefiniteError(
        f"matrix of dim {A.shape[0]} not positive definite within the jitter ladder"
    )


def cholesky_with_truncation(A: np.ndarray) -> tuple[np.ndarray, int]:
    """Column-by-column Cholesky that stops at the first nonpositive pivot.

    Returns the factor of the largest leading block that is numerically
    positive definite together with its size. No jitter is applied; callers
    that prefer jitter over truncation should use :func:`cholesky`.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if not (pivot > 0.0) or not math.isfinite(pivot):
            return L[:j, :j].copy(), j
        L[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L, n


def chol_solve(factor: CholeskyFactor, B: np.ndarray) -> np.ndarray:
    """Solve (L L^T) X = B by forward and back substitution."""
    B = np.asarray(B, dtype=float)
    if B.shape[0] != factor.dim:
        raise ValueError(f"dimension mismatch: factor dim {factor.dim}, rhs {B.shape}")
    Y = solve_triangular(factor.L, B, lower=True)
    return solve_triangular(factor.L, Y, lower=True, trans="T")


def chol_quad_diag(factor: CholeskyFactor, U: np.ndarray) -> np.ndarray:
    """Diagonal of U^T (L L^T)^{-1} U: the column sums of (L^{-1} U)^2.

    One forward substitution, no back substitution and no n x n product:
    for U of shape P x n this costs O(P^2 n) and holds two P x n arrays
    (L^{-1} U and its square) besides U.
    """
    U = np.asarray(U, dtype=float)
    if U.shape[0] != factor.dim:
        raise ValueError(f"dimension mismatch: factor dim {factor.dim}, rhs {U.shape}")
    V = solve_triangular(factor.L, U, lower=True)
    return np.sum(V * V, axis=0)


def logdet(factor: CholeskyFactor) -> float:
    """Log determinant of the factored matrix: 2 * sum(log diag(L))."""
    return 2.0 * float(np.sum(np.log(np.diag(factor.L))))


def vecm(A: np.ndarray) -> np.ndarray:
    """Stack the rows of a matrix into one vector."""
    return np.asarray(A, dtype=float).reshape(-1)


def tomat(v: np.ndarray, n: int, m: int) -> np.ndarray:
    """Inverse of :func:`vecm`: reshape a length n*m vector into n x m."""
    v = np.asarray(v, dtype=float)
    if v.size != n * m:
        raise ValueError(f"cannot reshape length-{v.size} vector to {n}x{m}")
    return v.reshape(n, m)


def _square_side(v: np.ndarray) -> int:
    n = math.isqrt(v.size)
    if n * n != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return n


def gamma_apply(v: np.ndarray) -> np.ndarray:
    """Symmetrization projector: vecm(C) -> vecm(C/2 + C.T/2).

    Idempotent and self-adjoint; symmetric matrices are fixed points.
    """
    v = np.asarray(v, dtype=float)
    n = _square_side(v)
    C = v.reshape(n, n)
    return (0.5 * C + 0.5 * C.T).reshape(-1)


def _check_symmetric(A: np.ndarray, name: str, tol: float = 1e-10) -> None:
    scale = np.max(np.abs(A)) or 1.0
    if np.max(np.abs(A - A.T)) > tol * scale:
        raise ValueError(f"{name} is not symmetric to tolerance {tol}")


@dataclass(frozen=True)
class SymKronOperator:
    """Symmetric Kronecker product of two symmetric N x N factors.

    Acts on length-N^2 vectors as Gamma (W kron V) Gamma, applied via the
    identity (A kron B) vecm(C) = vecm(A C B^T) at O(N^3) cost and O(N^2)
    memory.
    """

    W: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if W.shape != V.shape or W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"factors must be square and same size, got {W.shape}, {V.shape}")
        _check_symmetric(W, "left factor W")
        _check_symmetric(V, "right factor V")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "V", V)

    @property
    def side(self) -> int:
        return self.W.shape[0]


def sym_kron_apply(op: SymKronOperator, v: np.ndarray) -> np.ndarray:
    """Apply Gamma (W kron V) Gamma to a length-N^2 vector."""
    v = np.asarray(v, dtype=float)
    n = _square_side(v)
    if n != op.side:
        raise ValueError(f"operator side {op.side} does not match vector side {n}")
    C = gamma_apply(v).reshape(n, n)
    out = op.W @ C @ op.V.T
    return gamma_apply(out.reshape(-1))


def sym_kron_solve_sym(W: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Unique symmetric X with (W sym-kron W) vecm(X) = vecm(Y).

    Symmetric-Kronecker operators are rank deficient on general vectors, but
    restricted to symmetric right-hand sides the solve is well posed and
    equals W^{-1} Y W^{-1}.
    """
    W = np.asarray(W, dtype=float)
    Y = np.asarray(Y, dtype=float)
    _check_symmetric(W, "W")
    _check_symmetric(Y, "Y")
    factor = cholesky(W, jitter_ladder=())
    X = chol_solve(factor, chol_solve(factor, Y).T)
    return 0.5 * (X + X.T)


def sym_kron_sample(W: np.ndarray, W_M: np.ndarray, rng: np.random.Generator, size=None) -> np.ndarray:
    """Draw a symmetric matrix with covariance W sym-kron W - W_M sym-kron W_M.

    Uses the factorization into (W + W_M) sym-kron (W - W_M): with
    L+ = chol(W + W_M), L- = chol(W - W_M) and X standard normal, the draw is
    Gamma (L+ kron L-) vecm(X), i.e. the explicit symmetrization of
    L+ X L-^T. Both factorizations go through the jitter ladder, so W - W_M
    may be singular (it is exactly zero when W_M = W).

    With an integer `size` the result is a (size, n, n) stack of independent
    draws from one pair of factorizations; it equals `size` successive
    single draws from the same generator.
    """
    W = np.asarray(W, dtype=float)
    W_M = np.asarray(W_M, dtype=float)
    if W.shape != W_M.shape:
        raise ValueError("W and W_M must have the same shape")
    shape = W.shape if size is None else (size, *W.shape)
    diff = W - W_M
    # A difference at rounding scale relative to W is numerically zero: the
    # residual covariance is exhausted and the draw collapses to the mean.
    if np.max(np.abs(diff)) <= 64.0 * np.finfo(float).eps * max(np.max(np.abs(W)), 1.0):
        return np.zeros(shape)
    L_plus = cholesky(W + W_M).L
    L_minus = cholesky(diff).L
    X = rng.standard_normal(shape)
    B = L_plus @ X @ L_minus.T
    return 0.5 * (B + np.swapaxes(B, -1, -2))
