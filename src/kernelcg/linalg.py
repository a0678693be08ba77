"""Dense linear algebra core and symmetric-Kronecker calculus.

The symmetric Kronecker product W sym-kron V = Gamma (W kron V) Gamma acts
on vec(C) = C.reshape(-1), the rows of an N x N matrix stacked (column
stacking would be an equivalent convention, we fix rows), with Gamma the
symmetrization vec(C) -> vec(C/2 + C^T/2). The solve and the sampler below
work with the N x N factors only; no N^2 x N^2 matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf


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


def _pivots(L: np.ndarray, info: int) -> int:
    """How many leading pivots of the ``potrf`` factor L are positive and finite.

    ``potrf`` stops at the first nonpositive pivot (info > 0) but runs on
    through a NaN one (OpenBLAS does not report it) or an infinite one, so
    the diagonal before the stop is scanned.
    """
    d = L.diagonal()[: info - 1 if info > 0 else None]
    bad = np.flatnonzero(~((d > 0.0) & (d < np.inf)))
    return int(bad[0]) if bad.size else d.size


def cholesky(A: np.ndarray, jitter_ladder=JITTER_LADDER, *, in_place: bool = False) -> CholeskyFactor:
    """Factorize a symmetric matrix, escalating diagonal jitter on failure.

    The ladder is relative to the mean diagonal entry; for matrices with a
    zero diagonal (e.g. an all-zero difference of covariances) an absolute
    scale of 1 is used instead so the ladder still terminates.

    Both modes run one ladder on LAPACK ``potrf`` (scipy's ``dpotrf``),
    which reads only the lower triangle of A; every returned factor has a
    zero strict upper triangle and is finite. A non-finite diagonal raises
    ValueError; below a finite one a non-finite entry leaves a NaN or -inf
    pivot; a rung succeeds when every pivot is positive and finite, the
    rule :func:`cholesky_with_truncation` cuts at.

    By default A is left untouched: the factor is an F-ordered copy of A,
    restored from A after a failed rung, so a call holds A and one N x N
    array. With ``in_place=True`` the caller hands A over and A becomes the
    factor: A must be an F-ordered float64 array whose lower triangle is
    bit-equal to its upper one (as the view ``K.T`` of a bit-symmetric Gram
    ``K`` is). A failed rung restores the lower triangle from the strict
    upper one, which ``potrf`` then leaves untouched, and the diagonal from
    a saved copy, so A is unchanged when every rung fails; beyond A a call
    holds a few N-vectors. The two modes give bit-equal factors.

    Raises:
        NotPositiveDefiniteError: if no rung of the ladder succeeds.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if in_place and not (A.flags.f_contiguous and A.flags.writeable):
        raise ValueError("in-place factorization needs a writeable F-ordered matrix")
    diag = A.diagonal().copy()
    if not np.all(np.isfinite(diag)):
        raise ValueError("cannot factorize a matrix with a non-finite diagonal")
    scale = float(np.mean(diag)) if A.size else 0.0
    if scale <= 0.0:
        scale = 1.0
    L = A if in_place else np.array(A, order="F")
    for jitter in (0.0, *[scale * rung for rung in jitter_ladder]):
        np.fill_diagonal(L, diag + jitter)
        info = dpotrf(L, lower=1, clean=int(not in_place), overwrite_a=1)[1]
        if _pivots(L, info) == L.shape[0]:
            if in_place:  # potrf kept the strict upper triangle for a restore
                for j in range(1, L.shape[0]):
                    L[:j, j] = 0.0
            return CholeskyFactor(L=L, jitter=jitter)
        if in_place:
            for j in range(L.shape[0]):
                L[j + 1 :, j] = L[j, j + 1 :]
            np.fill_diagonal(L, diag)
        else:
            np.copyto(L, A)
    raise NotPositiveDefiniteError(
        f"matrix of dim {A.shape[0]} not positive definite within the jitter ladder"
    )


def cholesky_with_truncation(A: np.ndarray) -> tuple[np.ndarray, int]:
    """Factor of the largest leading block of A whose pivots are positive
    and finite, and that block's size.

    One ``potrf`` call on a copy of A, cut at the pivot rule of
    :func:`cholesky`'s rungs; when nothing is cut the factor itself is
    returned. No jitter is applied; callers that prefer jitter over
    truncation should use :func:`cholesky`.
    """
    L, info = dpotrf(np.asarray(A, dtype=float), lower=1, clean=1)
    k = _pivots(L, info)
    return (L, k) if k == L.shape[0] else (L[:k, :k].copy(), k)


def chol_solve(factor: CholeskyFactor, B: np.ndarray) -> np.ndarray:
    """Solve (L L^T) X = B by forward and back substitution.

    Only B is checked for non-finite entries: both Cholesky routines return
    finite factors."""
    B = np.asarray_chkfinite(B, dtype=float)
    if B.shape[0] != factor.dim:
        raise ValueError(f"dimension mismatch: factor dim {factor.dim}, rhs {B.shape}")
    Y = solve_triangular(factor.L, B, lower=True, check_finite=False)
    return solve_triangular(factor.L, Y, lower=True, trans="T", check_finite=False)


def chol_quad_diag(factor: CholeskyFactor, U: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """Diagonal of U^T (L L^T)^{-1} U: the column sums of (L^{-1} U)^2.

    One forward substitution, no back substitution and no n x n product:
    for U of shape P x n this costs O(P^2 n) and holds one P x n array
    besides U (L^{-1} U, squared in place) and the length-n output. With
    ``overwrite=True`` the caller hands U over, and an F-ordered float64 U
    is solved and squared in its own memory: no P x n array besides it.
    Only U is checked for non-finite entries, as in :func:`chol_solve`.
    """
    U = np.asarray_chkfinite(U, dtype=float)
    if U.shape[0] != factor.dim:
        raise ValueError(f"dimension mismatch: factor dim {factor.dim}, rhs {U.shape}")
    V = solve_triangular(factor.L, U, lower=True, overwrite_b=overwrite, check_finite=False)
    return np.sum(np.square(V, out=V), axis=0)


def chol_prefix_reads(factor: CholeskyFactor, U: np.ndarray, v=None, *,
                      overwrite: bool = False) -> tuple[np.ndarray | None, np.ndarray]:
    """Row q - 1 of the outputs is U_q^T (L_q L_q^T)^{-1} b_q, with v = L^{-1} b
    (None without v), and the diagonal of U_q^T (L_q L_q^T)^{-1} U_q, for every q.

    U_q is the first q of U's k <= dim rows and L_q the leading q x q block
    of L, the factor of the leading block of L L^T. L_q^{-1} U_q is the
    first q rows of V = L^{-1} U, so these are the running sums of v_i V_i
    and V_i^2; the last diagonal is :func:`chol_quad_diag`'s sum, up to its
    summation order. Holds V, squared into the second output, and the first;
    ``overwrite=True`` solves an F-ordered float64 U in its own memory.
    """
    k = U.shape[0]
    V = solve_triangular(factor.L[:k, :k], U, lower=True, overwrite_b=overwrite)
    sums = None
    if v is not None:
        sums = np.multiply(V, np.asarray(v)[:k, None])
        np.cumsum(sums, axis=0, out=sums)
    return sums, np.cumsum(np.square(V, out=V), axis=0, out=V)


def logdet(factor: CholeskyFactor) -> float:
    """Log determinant of the factored matrix: 2 * sum(log diag(L))."""
    return 2.0 * float(np.sum(np.log(np.diag(factor.L))))


def _check_symmetric(A: np.ndarray, name: str, tol: float = 1e-10) -> None:
    scale = np.max(np.abs(A)) or 1.0
    if np.max(np.abs(A - A.T)) > tol * scale:
        raise ValueError(f"{name} is not symmetric to tolerance {tol}")


def sym_kron_solve_sym(W: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Unique symmetric X with (W sym-kron W) vec(X) = vec(Y).

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
    Gamma (L+ kron L-) vec(X), i.e. the explicit symmetrization of
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
