"""Conjugate gradients, its fully reorthogonalized variant, and the
Galerkin (projection-method) solution extracted from collected directions.

The textbook recursion is known to lose residual orthogonality in floating
point; ``cg_reorth`` counters this by explicitly re-orthogonalizing every new
residual against all stored residuals (two-pass modified Gram-Schmidt). In
exact arithmetic the two variants coincide.

Traces record every search direction s_i together with the product
z_i = A s_i actually computed, which is exactly the information downstream
kernel learning consumes; the incremental solution x is carried along but
callers that report predictions use :func:`fom_solution` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .kernels import Kernel, _as_points, gram

CONVERGED = "converged"
MAXSTEPS = "maxsteps"
BREAKDOWN = "breakdown"

# A reorthogonalized residual below this multiple of machine epsilon times
# ||b|| carries no information; the solver stops rather than orthogonalize
# rounding noise.
_COLLAPSE_FACTOR = 8.0


@dataclass(frozen=True)
class MvmOperator:
    """A symmetric linear operator given by its matrix-vector product."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]


def dense_operator(A: np.ndarray) -> MvmOperator:
    A = np.asarray(A, dtype=float)
    return MvmOperator(dim=A.shape[0], apply=lambda v: A @ v)


@dataclass(frozen=True)
class CgTrace:
    """Everything a CG run produced: solution, directions, products, history."""

    x: np.ndarray
    S: np.ndarray  # N x P search directions
    Z: np.ndarray  # N x P operator products, column i is apply(S[:, i])
    residuals: np.ndarray  # N x (P+1) residual vectors as stored by the solver
    residual_norms: np.ndarray
    steps: int
    reason: str


def _run_cg(op: MvmOperator, b, x0, eps: float, max_steps: int, reorth: bool) -> CgTrace:
    b = np.asarray(b, dtype=float).reshape(-1)
    x = np.zeros(op.dim) if x0 is None else np.asarray(x0, dtype=float).reshape(-1).copy()
    if b.size != op.dim or x.size != op.dim:
        raise ValueError(f"operator dim {op.dim} does not match b ({b.size}) or x0 ({x.size})")

    r = op.apply(x) - b
    s = -r
    collapse_tol = _COLLAPSE_FACTOR * np.finfo(float).eps * np.linalg.norm(b)

    S_cols: list[np.ndarray] = []
    Z_cols: list[np.ndarray] = []
    res_cols = [r.copy()]
    norms = [float(np.linalg.norm(r))]
    basis: list[np.ndarray] = []  # normalized residuals, reorth mode only
    if reorth and norms[-1] > 0.0:
        basis.append(r / norms[-1])

    reason = MAXSTEPS
    for _ in range(max_steps):
        if not (norms[-1] > eps):
            reason = CONVERGED
            break
        z = op.apply(s)
        curvature = float(s @ z)
        if curvature <= 0.0 or not np.isfinite(curvature):
            # Nonpositive curvature: the direction is unusable, keep the
            # trace gathered so far.
            reason = BREAKDOWN
            break
        S_cols.append(s)
        Z_cols.append(z)
        rr_old = float(r @ r)
        alpha = rr_old / curvature
        x = x + alpha * s
        r_new = r + alpha * z
        if reorth:
            for _pass in range(2):
                for q in basis:
                    r_new = r_new - (q @ r_new) * q
        rn = float(np.linalg.norm(r_new))
        res_cols.append(r_new.copy())
        norms.append(rn)
        if reorth:
            if rn <= collapse_tol:
                r = r_new
                reason = CONVERGED
                break
            basis.append(r_new / rn)
        beta = float(r_new @ r_new) / rr_old
        s = -r_new + beta * s
        r = r_new
    else:
        if not (norms[-1] > eps):
            reason = CONVERGED

    n = op.dim
    S = np.column_stack(S_cols) if S_cols else np.zeros((n, 0))
    Z = np.column_stack(Z_cols) if Z_cols else np.zeros((n, 0))
    return CgTrace(
        x=x,
        S=S,
        Z=Z,
        residuals=np.column_stack(res_cols),
        residual_norms=np.asarray(norms),
        steps=S.shape[1],
        reason=reason,
    )


def default_cg_tolerance(b) -> float:
    """The default stopping threshold 0.01 * ||b||_2."""
    return 0.01 * float(np.linalg.norm(np.asarray(b, dtype=float)))


def cg_textbook(op: MvmOperator, b, x0=None, eps=None, max_steps=None) -> CgTrace:
    """Plain conjugate gradients: loop while ||r||_2 > eps.

    Each step performs one operator application z = A s, a line search
    alpha = r.r / s.z, and the coupled updates of solution, residual and
    direction. Breakdown (nonpositive curvature) truncates the trace.
    eps defaults to 0.01 * ||b||_2; pass eps=0 to force max_steps steps.
    """
    max_steps = op.dim if max_steps is None else int(max_steps)
    eps = default_cg_tolerance(b) if eps is None else float(eps)
    return _run_cg(op, b, x0, eps, max_steps, reorth=False)


def cg_reorth(op: MvmOperator, b, x0=None, eps=None, max_steps=None) -> CgTrace:
    """Conjugate gradients with complete residual reorthogonalization.

    Additionally stops once the reorthogonalized residual norm collapses to
    machine scale relative to ||b||, since further directions would be pure
    rounding noise. eps defaults to 0.01 * ||b||_2.
    """
    max_steps = op.dim if max_steps is None else int(max_steps)
    eps = default_cg_tolerance(b) if eps is None else float(eps)
    return _run_cg(op, b, x0, eps, max_steps, reorth=True)


def fom_solution(S: np.ndarray, Z: np.ndarray, b) -> np.ndarray:
    """Galerkin solution S (S^T Z)^{-1} S^T b in the span of the directions.

    S and Z must come from the same trace (so Z = A S); with zero collected
    directions the solution is the zero vector.
    """
    S = np.asarray(S, dtype=float)
    Z = np.asarray(Z, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if S.shape != Z.shape or S.shape[0] != b.size:
        raise ValueError(f"inconsistent shapes: S {S.shape}, Z {Z.shape}, b {b.shape}")
    if S.shape[1] == 0:
        return np.zeros(b.size)
    G = S.T @ Z
    factor = linalg.cholesky(0.5 * (G + G.T))
    return S @ linalg.chol_solve(factor, S.T @ b)


def cg_predict_mean(
    kernel: Kernel,
    X,
    y,
    sigma2: float,
    X_star,
    eps=None,
    max_steps=None,
    reorth: bool = True,
) -> np.ndarray:
    """GP mean prediction with the weight vector approximated by CG.

    Solves (K + sigma2 I) x = y with the chosen CG variant, extracts the
    projection-method solution from the collected directions, and applies
    the exact cross-covariance k(X*, X).
    """
    X = _as_points(X, kernel.dim)
    y = np.asarray(y, dtype=float).reshape(-1)
    K = gram(kernel, X)
    K[np.diag_indices_from(K)] += sigma2
    op = dense_operator(K)
    eps = default_cg_tolerance(y) if eps is None else float(eps)
    run = cg_reorth if reorth else cg_textbook
    trace = run(op, y, eps=eps, max_steps=max_steps)
    x_hat = fom_solution(trace.S, trace.Z, y)
    return gram(kernel, _as_points(X_star, kernel.dim), X) @ x_hat
