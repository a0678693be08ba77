"""Stationary covariance functions and Gram-matrix assembly.

Two families are provided: the ARD squared-exponential kernel
``theta_f * exp(-d^2 / 2)`` and the ARD Matern-5/2 kernel
``theta_f * (1 + sqrt(5) d + 5/3 d^2) * exp(-sqrt(5) d)`` where
``d^2 = sum_i lam_i (x_i - z_i)^2``. The per-dimension weights ``lam`` form
a diagonal precision metric (units 1/length^2), so larger entries mean
shorter correlation lengths.

Gram matrices are assembled in row blocks: :func:`gram` allocates the output
once, writes ``d^2`` into each block and converts it to kernel values in
place. Up to 32 input axes ``d^2`` comes from one compiled
``scipy.spatial.distance.cdist(..., "sqeuclidean", w=lam)`` call per block,
which releases the GIL, so threads assemble Grams concurrently. Each term is
``(lam_i * diff_i) * diff_i`` from the explicit coordinate difference, and
the terms are summed in axis order. No N x M x D temporary is built; scratch
is bounded by a fixed number of entries per block (see :func:`gram` for the
ceilings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

SQUARED_EXPONENTIAL = "se"
MATERN52 = "matern52"
_FAMILIES = (SQUARED_EXPONENTIAL, MATERN52)

# Above this input dimension, squared distances are accumulated with Kahan
# compensation so results do not depend on summation order.
_COMPENSATED_DIM = 32

# Gram matrices are filled in row blocks of at most this many entries (one
# row when a row is longer), which bounds every temporary.
_BLOCK_ENTRIES = 1 << 15

# Entries of one block of a cross-Gram k(X*, X) between test and training
# points (16 MiB), for callers that reduce it block by block instead of
# holding it whole. glibc malloc serves requests above its mmap threshold,
# which adapts up to 32 MiB, with fresh mappings that every use faults in
# again; blocks below it reuse freed heap pages from one prediction to the
# next.
_CROSS_BLOCK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class Kernel:
    """A stationary kernel with diagonal metric `lam` and amplitude `theta_f`."""

    family: str
    lam: np.ndarray
    theta_f: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}")
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        if lam.ndim != 1 or np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
            raise ValueError("metric entries must be positive finite reals")
        if not (self.theta_f > 0.0):
            raise ValueError("amplitude theta_f must be positive")
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        return self.lam.size


def se_kernel(lam, theta_f=1.0) -> Kernel:
    return Kernel(SQUARED_EXPONENTIAL, np.asarray(lam, dtype=float), float(theta_f))


def matern52_kernel(lam, theta_f=1.0) -> Kernel:
    return Kernel(MATERN52, np.asarray(lam, dtype=float), float(theta_f))


def _as_points(X, dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1) if dim == 1 else X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"points have dimension {X.shape}, kernel metric has {dim} entries")
    return X


def _sqdist_into(lam: np.ndarray, X: np.ndarray, Z: np.ndarray, out: np.ndarray) -> None:
    """Write Kahan-compensated weighted squared distances between the rows of X and Z into `out`.

    :func:`gram` takes this path above _COMPENSATED_DIM axes. Terms
    ``(diff_d * diff_d) * lam_d`` come from explicit coordinate differences
    (never the expanded ``|x|^2 + |z|^2 - 2 x.z`` form) and are added in axis
    order with a compensation term, so entries are exact mirror images when
    the two point sets coincide and can never go negative. Scratch is three
    arrays of out's size.
    """
    term = np.empty_like(out)
    carry = np.zeros_like(out)
    total = np.empty_like(out)
    out.fill(0.0)
    for d, lam_d in enumerate(lam):
        np.subtract.outer(X[:, d], Z[:, d], out=term)
        term *= term
        term *= lam_d
        term -= carry  # y = w - carry
        np.add(out, term, out=total)  # t = total + y
        np.subtract(total, out, out=carry)
        carry -= term  # carry = (t - total) - y
        out[...] = total


def _kernel_from_sqdist(kernel: Kernel, d2: np.ndarray) -> None:
    """Overwrite squared distances with kernel values.

    Keeps the operation order of the closed forms in the module docstring;
    Matern uses at most three d2-sized temporaries, SE none.
    """
    if kernel.family == SQUARED_EXPONENTIAL:
        d2 *= -0.5
        np.exp(d2, out=d2)
        d2 *= kernel.theta_f
        return
    sqrt5_d = np.sqrt(d2)
    sqrt5_d *= np.sqrt(5.0)
    decay = np.exp(-sqrt5_d)
    d2 *= 5.0 / 3.0
    d2 += 1.0 + sqrt5_d
    d2 *= kernel.theta_f
    d2 *= decay


def gram(kernel: Kernel, X, Z=None) -> np.ndarray:
    """Gram matrix K[i, j] = k(X_i, Z_j); Z defaults to X.

    When the two input sets coincide the output is bit-exactly symmetric
    with diagonal exactly theta_f (zero distance evaluates exactly).

    Up to _COMPENSATED_DIM axes each row block's squared distances come
    from one GIL-releasing cdist call (see the module docstring); above it
    from the compensated sum of :func:`_sqdist_into`.

    Memory ceiling, with a block of max(_BLOCK_ENTRIES, M) floats: the
    N x M output alone for SE with at most _COMPENSATED_DIM axes; the output
    plus three scratch blocks for Matern (its conversion from d^2) and for
    the compensated sum (which also fills numpy's fixed ufunc buffer, about
    128 KiB, from its strided input columns). No N x M x D or second N x M
    array is ever built.
    """
    X = _as_points(X, kernel.dim)
    Z = X if Z is None else _as_points(Z, kernel.dim)
    out = np.empty((X.shape[0], Z.shape[0]))
    rows = max(1, _BLOCK_ENTRIES // max(1, Z.shape[0]))
    for start in range(0, X.shape[0], rows):
        block = out[start : start + rows]
        if kernel.dim > _COMPENSATED_DIM:
            _sqdist_into(kernel.lam, X[start : start + rows], Z, block)
        else:
            cdist(X[start : start + rows], Z, "sqeuclidean", w=kernel.lam, out=block)
        _kernel_from_sqdist(kernel, block)
    return out
