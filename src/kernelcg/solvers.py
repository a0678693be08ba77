"""Conjugate gradients, its fully reorthogonalized variant, and the
Galerkin (projection-method) solution extracted from collected directions.

The textbook recursion is known to lose residual orthogonality in floating
point; ``cg_reorth`` counters this by explicitly re-orthogonalizing every new
residual against all stored residuals with one pass of classical
Gram-Schmidt (two matrix-vector products with the stored rows). The pass is
repeated once when it leaves at most kappa = 1/sqrt(2) of the residual's
norm: only such cancellation can leave a component in the stored span above
rounding, and a second pass then restores orthogonality to working
precision (the DGKS test; Giraud, Langou and Rozloznik 2005, "twice is
enough"). A CG residual is orthogonal to the stored ones in exact
arithmetic, so the pass removes only drift and keeps almost all of the norm;
the re-pass fires where the recursion has drifted far, as on ill-conditioned
problems, or where the residual has shrunk to rounding noise. In exact
arithmetic the two variants coincide.

A trace keeps directions, products and residuals as rows of arrays that
grow in place and are cut to the rows filled, and returns transposed views
of them; its memory follows the steps taken, not the step limit (see
:func:`cg_reorth`). The library's own callers, :func:`cg_predict_means` and
the KMCG fit, pass the private ``_keep_residuals=False`` and take a trace
without residuals: its directions are built over the spent residual rows,
so it holds two blocks of rows, not three.

Every run starts from x = 0, whose residual is -b without an operator
product, so a run of P steps makes P operator products, one more when it
stops on breakdown. Traces record every search direction s_i together with
the product z_i = A s_i actually computed, which is exactly the information
downstream kernel learning consumes. A trace carries no solution: the
solution after any number of steps is :func:`fom_solution` of that many
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg
from .kernels import Kernel, _as_points, _check_sigma2
from .structured import MvmOperator, dense_operator, gram_structure  # the operators are re-exported

CONVERGED = "converged"
MAXSTEPS = "maxsteps"
BREAKDOWN = "breakdown"

# A reorthogonalized residual below this multiple of machine epsilon times
# ||b|| carries no information; the solver stops rather than orthogonalize
# rounding noise.
_COLLAPSE_FACTOR = 8.0

# kappa of the DGKS test (Daniel, Gragg, Kaufman and Stewart 1976): a pass
# keeping at most this fraction of the norm has cancelled, so it is repeated.
_REPASS_RATIO = 1.0 / np.sqrt(2.0)

# Rows a trace buffer holds before its first growth.
_FIRST_ROWS = 16


@dataclass(frozen=True)
class CgTrace:
    """Everything a CG run produced: directions, products, residual history."""

    S: np.ndarray  # N x P search directions
    Z: np.ndarray  # N x P operator products, column i is apply(S[:, i])
    # N x (P+1) residual vectors as stored by the solver; None in the
    # library's own traces, whose S is built over them.
    residuals: Optional[np.ndarray]
    residual_norms: np.ndarray
    steps: int
    reason: str


def _orthogonalize(r: np.ndarray, basis: np.ndarray, sq: np.ndarray) -> float:
    """Project the mutually orthogonal rows of `basis` out of r in place.

    `sq` holds the rows' squared norms. One classical Gram-Schmidt pass,
    r <- r - ((basis r) / sq) basis, repeated once when it leaves at most
    _REPASS_RATIO of the norm r had. Returns the norm of r after its last
    pass.
    """
    before = np.linalg.norm(r)
    r -= ((basis @ r) / sq) @ basis
    after = np.linalg.norm(r)
    if after <= _REPASS_RATIO * before:
        r -= ((basis @ r) / sq) @ basis
        after = np.linalg.norm(r)
    return after


def _run_cg(op: MvmOperator, b, eps, max_steps, reorth: bool, keep_residuals: bool) -> CgTrace:
    """Both CG variants, with their defaults: eps 0.01 * ||b||_2, max_steps op.dim.

    Without `keep_residuals` the trace's residuals are None: S is built
    over the residual rows, so the trace holds two blocks of rows, not three.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.size != op.dim:
        raise ValueError(f"operator dim {op.dim} does not match b ({b.size})")
    eps = 0.01 * float(np.linalg.norm(b)) if eps is None else float(eps)
    limit = op.dim if max_steps is None else int(max_steps)
    if limit < 0:
        raise ValueError(f"max_steps must be at least 0, got {limit}")

    s = b.copy()
    collapse_tol = _COLLAPSE_FACTOR * np.finfo(float).eps * np.linalg.norm(b)

    # Row k of Z holds step k's product; row k of `res` holds residual r_k,
    # which has norm norms[k]; betas[k] is the ratio that turns direction k
    # into direction k + 1.
    first = min(limit, _FIRST_ROWS)
    Z = np.empty((first, op.dim))
    res = np.empty((first + 1, op.dim))
    norms = np.empty(first + 1)
    betas = np.empty(first)
    np.negative(b, out=res[0])
    norms[0] = np.linalg.norm(res[0])
    rr = float(res[0] @ res[0])

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
        if k == Z.shape[0]:
            # Full: grow in place. No view of a buffer outlives its
            # statement; resize's reference check would raise on one rather
            # than leave it dangling.
            rows = min(2 * k, limit)
            Z.resize((rows, op.dim))
            res.resize((rows + 1, op.dim))
            norms.resize(rows + 1)
            betas.resize(rows)
        Z[k] = z
        alpha = rr / curvature
        np.multiply(z, alpha, out=res[k + 1])
        res[k + 1] += res[k]
        if reorth:
            # The stored residuals are mutually orthogonal, so they are the
            # basis; one pass, and a second only if the first cancelled.
            norms[k + 1] = _orthogonalize(res[k + 1], res[: k + 1], norms[: k + 1] ** 2)
        else:
            norms[k + 1] = np.linalg.norm(res[k + 1])
        k += 1
        if reorth and norms[k] <= collapse_tol:
            reason = CONVERGED
            break
        rr_new = float(res[k] @ res[k])
        betas[k - 1] = rr_new / rr
        # s <- -r_k + beta s in place; IEEE addition commutes, so the bits
        # are the formula's.
        s *= betas[k - 1]
        s -= res[k]
        rr = rr_new
    else:
        if not (norms[k] > eps):
            reason = CONVERGED

    # The buffers are cut to the rows used. The loop never reads a stored
    # direction, so S is built once, by the same recursion over the stored
    # residuals: the same operations on the same values give the loop's
    # bits. Row 0 of S reads no residual and row j >= 1 reads only r_j, as
    # it overwrites it, so S can take the residuals' rows. The spent
    # direction s is scratch.
    Z.resize((k, op.dim))
    norms.resize(k + 1)
    if keep_residuals:
        res.resize((k + 1, op.dim))
        S = np.empty((k, op.dim))
    else:
        res.resize((k, op.dim))
        S = res
    if k:
        S[0] = b
    for j in range(1, k):
        np.multiply(S[j - 1], betas[j - 1], out=s)
        np.subtract(s, res[j], out=S[j])

    return CgTrace(
        S=S.T,
        Z=Z.T,
        residuals=res.T if keep_residuals else None,
        residual_norms=norms,
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


def cg_textbook(op: MvmOperator, b, eps=None, max_steps=None, *, _keep_residuals=True) -> CgTrace:
    """Plain conjugate gradients: loop while ||r||_2 > eps.

    Each step performs one operator application z = A s, a line search
    alpha = r.r / s.z, and the coupled updates of residual and direction;
    :func:`fom_solution` gives the solution. Breakdown (nonpositive
    curvature) truncates the trace. eps defaults to 0.01 * ||b||_2; pass
    eps=0 to force max_steps steps (max_steps defaults to op.dim; a
    negative max_steps raises ValueError).
    Memory is that of :func:`cg_reorth`.
    """
    return _run_cg(op, b, eps, max_steps, reorth=False, keep_residuals=_keep_residuals)


def cg_reorth(op: MvmOperator, b, eps=None, max_steps=None, *, _keep_residuals=True) -> CgTrace:
    """Conjugate gradients with complete residual reorthogonalization.

    Additionally stops once the reorthogonalized residual norm collapses to
    machine scale relative to ||b||, since further directions would be pure
    rounding noise. eps defaults to 0.01 * ||b||_2 and max_steps to op.dim;
    a negative max_steps raises ValueError.

    Cost: step k (counting from 1) makes one operator product and two
    products of an N-vector with the k stored residual rows (4 N k flops),
    and two more when the re-pass test of the module docstring fires.

    Memory: the products Z and the residuals are rows of N floats in
    buffers that start at 16 and 17 rows, at least double in place when
    full, never pass max_steps and max_steps + 1 rows, and are cut to the
    P and P + 1 rows used when the run stops; the directions S are built
    once after the loop, exactly P rows for P steps. The ceiling is the
    larger of the buffers at their last size, fewer than
    2 N max(2 P, 17) floats, and the final 3 P + 1 rows, plus a few
    N-vectors and what the operator allocates. That is O(N P) in the steps
    taken and independent of max_steps: the default max_steps = N allocates
    no N x N array, and a run that reaches its max_steps holds
    3 max_steps + 1 rows at most.
    """
    return _run_cg(op, b, eps, max_steps, reorth=True, keep_residuals=_keep_residuals)


def fom_solution(S: np.ndarray, Z: np.ndarray, b) -> np.ndarray:
    """Galerkin solution S (S^T Z)^{-1} S^T b in the span of the directions.

    S and Z must come from the same trace (so Z = A S); with zero collected
    directions S^T Z is 0 x 0 and the solution is the zero vector.
    """
    S = np.asarray(S, dtype=float)
    Z = np.asarray(Z, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if S.shape != Z.shape or S.shape[0] != b.size:
        raise ValueError(f"inconsistent shapes: S {S.shape}, Z {Z.shape}, b {b.shape}")
    G = S.T @ Z
    factor = linalg.cholesky(0.5 * (G + G.T))
    return S @ linalg.chol_solve(factor, S.T @ b)


def cg_predict_means(kernel: Kernel, X, y, sigma2: float, X_star, budgets, eps=None,
                     reorth: bool = True) -> list[tuple[np.ndarray, int, str]]:
    """GP mean predictions, with the weight vector approximated by CG, at every budget.

    One CG run to max(budgets) steps on K + sigma2 I, in the structure
    :func:`kernelcg.structured.gram_structure` reads off X. Budget p's mean
    is the Galerkin mean of the first q = min(p, steps) directions (a run
    capped at p), read (:func:`kernelcg.linalg.chol_prefix_reads`) off
    U = S^T k(X, X*), one pass over k(X*, X), and one factor of S^T Z,
    whose one jitter ladder sets every budget's rung: O(P^3 + n* N P) flops.
    Returns (mean, q, :func:`stop_reason_within` p) per budget, in order. A
    budget of None means N; none or a negative one raises ValueError first.

    Memory: a trace without residuals, its S built over their rows, which
    holds 2 max(budgets) + 1 rows of N floats at most when CG runs to the
    largest budget (see :func:`cg_reorth` for the buffers); one P x n* U,
    solved in place, and its running sums; the operator and one block of
    k(X*, X). On an SE grid there is no N x N and no n* x N array; on a
    series of T = 4096 positions, N = 2048, n* = 100 and budget 40 the peak
    is below N^2 * 8 / 4 bytes. Otherwise the operator holds the N x N Gram.
    """
    X = _as_points(X, kernel.dim)
    budgets = [X.shape[0] if p is None else int(p) for p in budgets]
    if not budgets:
        raise ValueError("no step budgets given")
    if min(budgets) < 0:
        raise ValueError(f"step budgets must be at least 0, got {min(budgets)}")
    sigma2 = _check_sigma2(sigma2)
    structure = gram_structure(kernel, X)
    run = cg_reorth if reorth else cg_textbook
    trace = run(structure.operator(sigma2), y, eps=eps, max_steps=max(budgets), _keep_residuals=False)
    G = trace.S.T @ trace.Z
    factor = linalg.cholesky(0.5 * (G + G.T))
    v = solve_triangular(factor.L, trace.S.T @ np.ravel(y), lower=True)
    means = linalg.chol_prefix_reads(factor, structure.cross_products(X_star, trace.S).T, v, overwrite=True)[0]
    return [(means[q - 1].copy() if q else np.zeros(means.shape[1]), q, stop_reason_within(trace, p))
            for p, q in ((p, min(p, trace.steps)) for p in budgets)]


def cg_predict_mean(kernel: Kernel, X, y, sigma2: float, X_star, eps=None, max_steps=None,
                    reorth: bool = True) -> np.ndarray:
    """GP mean prediction with the weight vector approximated by CG.

    The single-budget case of :func:`cg_predict_means`; max_steps None
    means N.
    """
    ((mean, _, _),) = cg_predict_means(kernel, X, y, sigma2, X_star, [max_steps], eps=eps, reorth=reorth)
    return mean
