"""Conjugate gradients, its fully reorthogonalized variant, and the
Galerkin (projection-method) solution extracted from collected directions.

The textbook recursion is known to lose residual orthogonality in floating
point; ``cg_reorth`` counters this by explicitly re-orthogonalizing every new
residual against all stored residuals with classical Gram-Schmidt applied
twice (CGS2, two matrix-vector products per pass; Giraud, Langou and
Rozloznik 2005 show it orthogonalizes as well as two-pass modified
Gram-Schmidt). In exact arithmetic the two variants coincide.

A trace keeps directions, products and residuals as rows of buffers that
start small and at least double when full, capped at the step limit, and
returns transposed views of the rows filled; see :func:`cg_reorth` for the
memory this takes.

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

# Rows a trace buffer holds before its first growth.
_FIRST_ROWS = 16


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


def _with_room(buf: np.ndarray, rows: int, limit: int) -> np.ndarray:
    """`buf`, or a copy of it with room for `rows` rows.

    Capacity at least doubles on each copy and never exceeds `limit`.
    """
    if rows <= buf.shape[0]:
        return buf
    grown = np.empty((min(max(2 * buf.shape[0], rows), limit),) + buf.shape[1:])
    grown[: buf.shape[0]] = buf
    return grown


def _run_cg(op: MvmOperator, b, x0, eps: float, max_steps: int, reorth: bool) -> CgTrace:
    b = np.asarray(b, dtype=float).reshape(-1)
    x = np.zeros(op.dim) if x0 is None else np.asarray(x0, dtype=float).reshape(-1).copy()
    if b.size != op.dim or x.size != op.dim:
        raise ValueError(f"operator dim {op.dim} does not match b ({b.size}) or x0 ({x.size})")

    r = op.apply(x) - b
    s = -r
    collapse_tol = _COLLAPSE_FACTOR * np.finfo(float).eps * np.linalg.norm(b)

    # Row k of S and Z holds step k's direction and product; row k of `res`
    # holds residual r_k, which has norm norms[k].
    limit = max(max_steps, 0)
    first = min(limit, _FIRST_ROWS)
    S = np.empty((first, op.dim))
    Z = np.empty((first, op.dim))
    res = np.empty((first + 1, op.dim))
    norms = np.empty(first + 1)
    res[0] = r
    norms[0] = np.linalg.norm(r)
    rr = float(r @ r)

    k = 0
    reason = MAXSTEPS
    while k < limit:
        if not (norms[k] > eps):
            reason = CONVERGED
            break
        z = op.apply(s)
        curvature = float(s @ z)
        if curvature <= 0.0 or not np.isfinite(curvature):
            # Nonpositive curvature: the direction is unusable, keep the
            # trace gathered so far.
            reason = BREAKDOWN
            break
        S = _with_room(S, k + 1, limit)
        Z = _with_room(Z, k + 1, limit)
        res = _with_room(res, k + 2, limit + 1)
        norms = _with_room(norms, k + 2, limit + 1)
        S[k] = s
        Z[k] = z
        alpha = rr / curvature
        x = x + alpha * s
        r_new = r + alpha * z
        if reorth:
            # CGS2: project out every stored residual, twice. The stored
            # residuals are mutually orthogonal, so they are the basis.
            basis = res[: k + 1]
            sq = norms[: k + 1] ** 2
            for _pass in range(2):
                r_new -= ((basis @ r_new) / sq) @ basis
        k += 1
        res[k] = r_new
        norms[k] = np.linalg.norm(r_new)
        if reorth and norms[k] <= collapse_tol:
            reason = CONVERGED
            break
        rr_new = float(r_new @ r_new)
        s = -r_new + (rr_new / rr) * s
        r, rr = r_new, rr_new
    else:
        if not (norms[k] > eps):
            reason = CONVERGED

    return CgTrace(
        x=x,
        S=S[:k].T,
        Z=Z[:k].T,
        residuals=res[: k + 1].T,
        residual_norms=norms[: k + 1],
        steps=k,
        reason=reason,
    )


def stop_reason_within(trace: CgTrace, budget: int) -> str:
    """Why the same CG run capped at `budget` steps stops.

    `trace` must have run with a step limit of at least `budget`. A budget
    the trace ran past stops for its budget. A breakdown is met only when
    step trace.steps + 1 is tried, which a budget of exactly trace.steps
    never does.
    """
    if budget > trace.steps or (budget == trace.steps and trace.reason != BREAKDOWN):
        return trace.reason
    return MAXSTEPS


def default_cg_tolerance(b) -> float:
    """The default stopping threshold 0.01 * ||b||_2."""
    return 0.01 * float(np.linalg.norm(np.asarray(b, dtype=float)))


def cg_textbook(op: MvmOperator, b, x0=None, eps=None, max_steps=None) -> CgTrace:
    """Plain conjugate gradients: loop while ||r||_2 > eps.

    Each step performs one operator application z = A s, a line search
    alpha = r.r / s.z, and the coupled updates of solution, residual and
    direction. Breakdown (nonpositive curvature) truncates the trace.
    eps defaults to 0.01 * ||b||_2; pass eps=0 to force max_steps steps
    (max_steps defaults to op.dim). Memory is that of :func:`cg_reorth`.
    """
    max_steps = op.dim if max_steps is None else int(max_steps)
    eps = default_cg_tolerance(b) if eps is None else float(eps)
    return _run_cg(op, b, x0, eps, max_steps, reorth=False)


def cg_reorth(op: MvmOperator, b, x0=None, eps=None, max_steps=None) -> CgTrace:
    """Conjugate gradients with complete residual reorthogonalization.

    Additionally stops once the reorthogonalized residual norm collapses to
    machine scale relative to ||b||, since further directions would be pure
    rounding noise. eps defaults to 0.01 * ||b||_2 and max_steps to op.dim.

    Memory: after P steps the trace holds S, Z and the residuals in row
    buffers of at most max(2 (P + 1), 17) rows of N floats each, never more
    than max_steps + 1 rows; while a buffer grows its old rows are held
    once more. The ceiling is therefore about 7 N max(P + 1, 17) floats plus
    what the operator allocates, O(N P) in the steps taken and independent
    of max_steps: the default max_steps = N allocates no N x N array.
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
