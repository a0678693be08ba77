"""Brute-force oracles used by the tests.

These deliberately avoid the package's own linear-algebra paths: dense
N^2 x N^2 Kronecker operators built from the definitions, Gaussian
elimination, and cofactor-expansion determinants. Slow and simple on
purpose.
"""

import numpy as np


def dense_gamma(n: int) -> np.ndarray:
    """The symmetrization projector as an explicit n^2 x n^2 matrix."""
    G = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            row = i * n + j
            G[row, i * n + j] += 0.5
            G[row, j * n + i] += 0.5
    return G


def dense_kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with explicit double-index loops."""
    n1, n2 = A.shape
    n3, n4 = B.shape
    out = np.zeros((n1 * n3, n2 * n4))
    for i in range(n1):
        for j in range(n3):
            for k in range(n2):
                for l in range(n4):
                    out[i * n3 + j, k * n4 + l] = A[i, k] * B[j, l]
    return out


def dense_sym_kron(W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Gamma (W kron V) Gamma built densely."""
    n = W.shape[0]
    G = dense_gamma(n)
    return G @ dense_kron(W, V) @ G


def gauss_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    b = np.array(b, dtype=float).reshape(n, -1)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x.reshape(-1) if x.shape[1] == 1 else x


def cofactor_det(A: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * A[0, j] * cofactor_det(minor)
    return total


def mvn_logpdf(y: np.ndarray, cov: np.ndarray) -> float:
    """Zero-mean Gaussian log density via elimination and cofactor determinant."""
    y = np.asarray(y, dtype=float).reshape(-1)
    n = y.size
    quad = float(y @ gauss_solve(cov, y))
    if n <= 8:
        logdet = float(np.log(cofactor_det(cov)))
    else:
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
    return -0.5 * quad - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)


def random_spd(rng: np.random.Generator, n: int, cond: float = 100.0) -> np.ndarray:
    """Random SPD matrix with a controlled condition number."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, 1.0 / cond, n)
    return (Q * eigs) @ Q.T


def cg_list_loop(apply, b, eps: float, max_steps: int, reorth: bool):
    """CG with Python column lists, as the solver was first written.

    reorth=True orthogonalizes each new residual against the normalized
    stored residuals one vector at a time, two passes of modified
    Gram-Schmidt, and stops once a residual collapses below 8 machine
    epsilons times ||b||. Returns (x, S, Z, residuals, norms, steps, reason).
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    x = np.zeros(b.size)
    r = apply(x) - b
    s = -r
    collapse_tol = 8.0 * np.finfo(float).eps * np.linalg.norm(b)
    S_cols, Z_cols, res_cols = [], [], [r.copy()]
    norms = [float(np.linalg.norm(r))]
    basis = [r / norms[-1]] if reorth and norms[-1] > 0.0 else []
    reason = "maxsteps"
    for _ in range(max_steps):
        if not (norms[-1] > eps):
            reason = "converged"
            break
        z = apply(s)
        curvature = float(s @ z)
        if curvature <= 0.0 or not np.isfinite(curvature):
            reason = "breakdown"
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
                reason = "converged"
                break
            basis.append(r_new / rn)
        beta = float(r_new @ r_new) / rr_old
        s = -r_new + beta * s
        r = r_new
    else:
        if not (norms[-1] > eps):
            reason = "converged"
    n = b.size
    S = np.column_stack(S_cols) if S_cols else np.zeros((n, 0))
    Z = np.column_stack(Z_cols) if Z_cols else np.zeros((n, 0))
    return x, S, Z, np.column_stack(res_cols), np.asarray(norms), S.shape[1], reason
