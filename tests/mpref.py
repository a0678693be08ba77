"""High-precision references evaluated with mpmath at 40 significant digits.

Float64 results are checked against these on problems small enough for
arbitrary-precision arithmetic (N <= 60, M <= 8): every kernel value, sum,
factor, inverse and determinant is computed at 40 digits from the float64
inputs, so the only float64 rounding a comparison sees is the library's own.

:func:`gram_reference` evaluates the weighted squared distances and kernel
values behind :func:`kernelcg.kernels.gram`.

:func:`exact_reference` evaluates the exact GP through the Cholesky factor
K + sigma2 I = L L^T at 40 digits, with w = L^{-1} y and V = L^{-1} k(X, X*):

    mean(x*)  = V^T w
    var(x*)   = theta_f - diag(V^T V)
    evidence  = -1/2 w^T w - sum_i ln L_ii - N/2 ln(2 pi)

:func:`inducing_reference` evaluates the model N(y; 0, Q + Lam) behind SoR,
DTC, VFE and FITC in its M x M form, with Q = K_NU K_UU^{-1} K_UN and
A = K_UU + K_UN Lam^{-1} K_NU:

    mean(x*)  = k(x*, X_U) A^{-1} K_UN Lam^{-1} y
    plain(x*) = k(x*, X_U) A^{-1} k(X_U, x*)                  (SoR variance)
    dtc(x*)   = theta_f - k(x*, X_U) K_UU^{-1} k(X_U, x*) + plain(x*)
    evidence  = -1/2 (y^T Lam^{-1} y - b^T A^{-1} b)
                - 1/2 (sum log Lam + ln|A| - ln|K_UU|) - N/2 ln(2 pi),
                b = K_UN Lam^{-1} y

Lam = sigma2 I for SoR, DTC and VFE and theta_f - diag Q + sigma2 for FITC;
VFE subtracts tr(K - Q) / (2 sigma2) from the DTC evidence.

:func:`kmcg_reference` evaluates the KMCG regressor for given directions S
with the formulas of the `kernelcg.kmcg` module docstring, with
G = S^T K_M S, R = k(X, X_M) S, A = R^T R + sigma2 G and u = S^T k(X_M, x*):

    mean(x*)  = u^T A^{-1} R^T y
    var(x*)   = theta_f - u^T G^{-1} u + sigma2 u^T A^{-1} u
    evidence  = -1/(2 sigma2) (y^T y - y^T R A^{-1} R^T y) - 1/2 ln|A| + 1/2 ln|G|
                - (N - P)/2 ln sigma2 - N/2 ln(2 pi)

and the posterior over the kernel (prior scale 1) on the test points, with
U = [u(x*_1) .. u(x*_n)] and K = k(X*, X*):

    khat      = U^T G^{-1} U
    kvar_ij   = 1/2 (K_ii K_jj + K_ij^2 - khat_ii khat_jj - khat_ij^2)

:func:`galerkin_reference` evaluates the CG baselines' Galerkin mean for
given directions S, with u = S^T k(X, x*):

    mean(x*)  = u^T (S^T (K + sigma2 I) S)^{-1} S^T y
"""

from __future__ import annotations

import mpmath
import numpy as np

from kernelcg.kernels import SQUARED_EXPONENTIAL

DIGITS = 40


def _sqdist(kernel, x, z):
    return mpmath.fsum(mpmath.mpf(lam) * (mpmath.mpf(a) - mpmath.mpf(b)) ** 2
                       for lam, a, b in zip(kernel.lam, x, z))


def _from_sqdist(kernel, d2):
    if kernel.family == SQUARED_EXPONENTIAL:
        return kernel.theta_f * mpmath.exp(-d2 / 2)
    r = mpmath.sqrt(5 * d2)
    return kernel.theta_f * (1 + r + 5 * d2 / 3) * mpmath.exp(-r)


def _gram(kernel, A, B):
    return mpmath.matrix([[_from_sqdist(kernel, _sqdist(kernel, a, b)) for b in B] for a in A])


def gram_reference(kernel, A, B) -> tuple:
    """(d^2, k) for every pair of rows of A and B, as two float64 arrays.

    Evaluated at DIGITS significant digits from the float64 inputs, so the
    arrays are the exact values rounded once.
    """
    with mpmath.workdps(DIGITS):
        d2 = [[_sqdist(kernel, a, b) for b in B] for a in A]
        k = [[_from_sqdist(kernel, entry) for entry in row] for row in d2]
        return np.array(d2, dtype=float), np.array(k, dtype=float)


def _quad_diag(U, inverse):
    """The diagonal of U^T inverse U."""
    V = inverse * U
    return [mpmath.fdot(U.column(j), V.column(j)) for j in range(U.cols)]


def _fit(K_uu, logdet_uu, K_un, K_us, y, lam):
    """(mean, plain variance, evidence) of N(y; 0, Q + diag(lam))."""
    n = len(lam)
    scaled = K_un.copy()
    for i in range(scaled.rows):
        for j in range(n):
            scaled[i, j] /= lam[j]
    A = K_uu + scaled * K_un.T
    A_inv = mpmath.inverse(A)
    b = scaled * mpmath.matrix(y)
    weights = A_inv * b
    mean = [(K_us.column(s).T * weights)[0, 0] for s in range(K_us.cols)]
    plain = _quad_diag(K_us, A_inv)
    quad = mpmath.fsum(y[j] ** 2 / lam[j] for j in range(n)) - (b.T * weights)[0, 0]
    logdet = mpmath.fsum(mpmath.log(v) for v in lam) + mpmath.log(mpmath.det(A)) - logdet_uu
    evidence = -quad / 2 - logdet / 2 - n * mpmath.log(2 * mpmath.pi) / 2
    return mean, plain, evidence


def inducing_reference(kernel, X, y, sigma2, X_U, X_star) -> dict:
    """{method: (mean, pointwise variance, evidence)} for sor, dtc, vfe and fitc.

    Evaluated at DIGITS significant digits and returned as float64. Keep
    N <= 30 and M <= 8: an M x M inverse at 40 digits is cheap, an N x N one
    is not.
    """
    with mpmath.workdps(DIGITS):
        theta = mpmath.mpf(kernel.theta_f)
        sigma2 = mpmath.mpf(sigma2)
        y = [mpmath.mpf(v) for v in np.asarray(y, dtype=float)]
        K_uu = _gram(kernel, X_U, X_U)
        K_un = _gram(kernel, X_U, X)
        K_us = _gram(kernel, X_U, X_star)
        K_uu_inv = mpmath.inverse(K_uu)
        logdet_uu = mpmath.log(mpmath.det(K_uu))
        gap = [theta - q for q in _quad_diag(K_un, K_uu_inv)]
        prior_defect = [theta - q for q in _quad_diag(K_us, K_uu_inv)]

        mean, plain, evidence = _fit(K_uu, logdet_uu, K_un, K_us, y, [sigma2] * len(y))
        dtc = [d + p for d, p in zip(prior_defect, plain)]
        vfe_evidence = evidence - mpmath.fsum(gap) / (2 * sigma2)
        fitc_mean, fitc_plain, fitc_evidence = _fit(K_uu, logdet_uu, K_un, K_us, y, [g + sigma2 for g in gap])
        fitc_var = [d + p for d, p in zip(prior_defect, fitc_plain)]

        def out(mean, var, evidence):
            return np.array(mean, dtype=float), np.array(var, dtype=float), float(evidence)

        return {
            "sor": out(mean, plain, evidence),
            "dtc": out(mean, dtc, evidence),
            "vfe": out(mean, dtc, vfe_evidence),
            "fitc": out(fitc_mean, fitc_var, fitc_evidence),
        }


def _cholesky(A):
    """The lower Cholesky factor of a symmetric positive definite list-of-rows matrix."""
    L = []
    for i, row in enumerate(A):
        L.append([])
        for j in range(i + 1):
            s = row[j] - mpmath.fdot(L[i][:j], L[j][:j])
            L[i].append(mpmath.sqrt(s) if i == j else s / L[j][j])
    return L


def _forward(L, b):
    """L^{-1} b for a lower triangular list-of-rows L."""
    x = []
    for row, v in zip(L, b):
        x.append((v - mpmath.fdot(row[: len(x)], x)) / row[len(x)])
    return x


def exact_reference(kernel, X, y, sigma2s, X_star) -> list:
    """[(mean, pointwise variance, evidence)] of the exact GP at each noise level in sigma2s.

    Evaluated at DIGITS significant digits and returned as float64. K and
    k(X*, X) are formed once and every noise level is factored from them.
    Keep N <= 60: the N^2 kernel values and the N^3 / 6 factor work take
    about 0.1 s at N = 24 with four noise levels.
    """
    with mpmath.workdps(DIGITS):
        theta = mpmath.mpf(kernel.theta_f)
        n = len(y)
        K = _gram(kernel, X, X).tolist()
        K_s = _gram(kernel, X_star, X).tolist()
        y = [mpmath.mpf(v) for v in np.asarray(y, dtype=float)]
        out = []
        for sigma2 in sigma2s:
            L = _cholesky([row[:i] + [row[i] + mpmath.mpf(sigma2)] for i, row in enumerate(K)])
            w = _forward(L, y)
            V = [_forward(L, k) for k in K_s]
            mean = [mpmath.fdot(v, w) for v in V]
            var = [theta - mpmath.fdot(v, v) for v in V]
            evidence = (-mpmath.fdot(w, w) / 2 - mpmath.fsum(mpmath.log(row[i]) for i, row in enumerate(L))
                        - n * mpmath.log(2 * mpmath.pi) / 2)
            out.append((np.array(mean, dtype=float), np.array(var, dtype=float), float(evidence)))
        return out


def _leading(A, rows, cols):
    return mpmath.matrix([[A[i, j] for j in range(cols)] for i in range(rows)])


def _kernel_variance(K, khat):
    """Pairwise posterior variances of the kernel at prior scale 1 (see the module docstring)."""
    n = K.rows
    return [[(K[i, i] * K[j, j] + K[i, j] ** 2 - khat[i, i] * khat[j, j] - khat[i, j] ** 2) / 2 for j in range(n)]
            for i in range(n)]


def kmcg_reference(kernel, X, y, sigma2, X_M, S, X_star) -> list:
    """[(mean, pointwise variance, evidence, khat, kernel variance)] of KMCG on the
    leading q columns of S, q = 0..P.

    khat and the kernel variance are the learned kernel and the pairwise
    posterior variance of the kernel on X_star (n* x n* each).

    Evaluated at DIGITS significant digits and returned as float64. S is
    M x P; G, R^T R, R^T y and U are formed once for all P columns, and the
    q-column model uses their leading blocks. Keep N <= 30 and P <= 8.
    """
    with mpmath.workdps(DIGITS):
        theta = mpmath.mpf(kernel.theta_f)
        sigma2 = mpmath.mpf(sigma2)
        y = mpmath.matrix([mpmath.mpf(v) for v in np.asarray(y, dtype=float)])
        S = mpmath.matrix(np.asarray(S, dtype=float).tolist())
        n, p = len(y), S.cols
        K_M = _gram(kernel, X_M, X_M)
        G = S.T * K_M * S
        R = (K_M if np.array_equal(X, X_M) else _gram(kernel, X, X_M)) * S
        RtR, b = R.T * R, R.T * y
        U = S.T * _gram(kernel, X_M, X_star)
        K_ss = _gram(kernel, X_star, X_star)
        yy = (y.T * y)[0, 0]
        constant = -n * mpmath.log(2 * mpmath.pi) / 2
        zero = mpmath.zeros(U.cols, U.cols)
        out = [(np.zeros(U.cols), np.full(U.cols, float(theta)),
                float(-yy / (2 * sigma2) - n * mpmath.log(sigma2) / 2 + constant),
                np.zeros((U.cols, U.cols)), np.array(_kernel_variance(K_ss, zero), dtype=float))]
        for q in range(1, p + 1):
            G_q = _leading(G, q, q)
            A = _leading(RtR, q, q) + sigma2 * G_q
            A_inv = mpmath.inverse(A)
            U_q = _leading(U, q, U.cols)
            w = A_inv * _leading(b, q, 1)
            mean = U_q.T * w
            G_inv = mpmath.inverse(G_q)
            lost = _quad_diag(U_q, G_inv)
            khat = U_q.T * G_inv * U_q
            gained = _quad_diag(U_q, A_inv)
            var = [theta - l + sigma2 * g for l, g in zip(lost, gained)]
            quad = yy - (_leading(b, q, 1).T * w)[0, 0]
            evidence = (-quad / (2 * sigma2) - mpmath.log(mpmath.det(A)) / 2 + mpmath.log(mpmath.det(G_q)) / 2
                        - (n - q) * mpmath.log(sigma2) / 2 + constant)
            out.append((np.array([mean[j] for j in range(U.cols)], dtype=float), np.array(var, dtype=float),
                        float(evidence), np.array(khat.tolist(), dtype=float),
                        np.array(_kernel_variance(K_ss, khat), dtype=float)))
        return out


def galerkin_reference(kernel, X, y, sigma2, S, X_star) -> list:
    """[mean] of the Galerkin solution on the leading q columns of S, q = 0..P.

    Evaluated at DIGITS significant digits from the float64 S and returned
    as float64. S is N x P; S^T (K + sigma2 I) S, S^T y and U are formed
    once for all P columns, and the q-column mean uses their leading
    blocks. Keep N <= 30 and P <= 8.
    """
    with mpmath.workdps(DIGITS):
        y = mpmath.matrix([mpmath.mpf(v) for v in np.asarray(y, dtype=float)])
        S = mpmath.matrix(np.asarray(S, dtype=float).tolist())
        K = _gram(kernel, X, X)
        for i in range(K.rows):
            K[i, i] += mpmath.mpf(sigma2)
        G, b = S.T * K * S, S.T * y
        U = S.T * _gram(kernel, X, X_star)
        out = [np.zeros(U.cols)]
        for q in range(1, S.cols + 1):
            mean = _leading(U, q, U.cols).T * (mpmath.inverse(_leading(G, q, q)) * _leading(b, q, 1))
            out.append(np.array([mean[j] for j in range(U.cols)], dtype=float))
        return out
