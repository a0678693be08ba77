"""Stationary covariance functions and Gram-matrix assembly.

Two families are provided: the ARD squared-exponential kernel
``theta_f * exp(-d^2 / 2)`` and the ARD Matern-5/2 kernel
``theta_f * (1 + sqrt(5) d + 5/3 d^2) * exp(-sqrt(5) d)`` where
``d^2 = sum_i lam_i (x_i - z_i)^2``. The per-dimension weights ``lam`` form
a diagonal precision metric (units 1/length^2), so larger entries mean
shorter correlation lengths.

Gram matrices are assembled in row blocks: :func:`gram` allocates the output
once, writes ``d^2`` into each block with one compiled
``scipy.spatial.distance.cdist(..., "sqeuclidean", w=lam)`` call and converts
it to kernel values in place. Each term is ``(lam_i * diff_i) * diff_i``
from the explicit coordinate difference, and the terms are summed in axis
order, so ``d^2`` is never negative and its relative error is at most about
``(D + 2) u``, u the unit roundoff (three roundings per term and ``D - 1``
in the recursive sum of nonnegative terms). No N x M x D temporary is
built; scratch is bounded by a fixed number of entries per block (see
:func:`gram` for the ceilings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

SQUARED_EXPONENTIAL = "se"
MATERN52 = "matern52"
_FAMILIES = (SQUARED_EXPONENTIAL, MATERN52)

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
        if not (0.0 < self.theta_f < np.inf):
            raise ValueError(f"amplitude theta_f must be positive and finite, got {self.theta_f}")
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        return self.lam.size


def _check_sigma2(sigma2) -> float:
    """The noise variance as a float; ValueError unless 0 < sigma2 < inf."""
    if not (0.0 < sigma2 < np.inf):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    return float(sigma2)


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
    with diagonal exactly theta_f (zero distance evaluates exactly). Each
    row block's squared distances come from one cdist call (see the module
    docstring), so the result does not depend on the block size or on the
    memory layout of X and Z.

    Memory ceiling, with a block of max(_BLOCK_ENTRIES, M) floats: the
    N x M output alone for SE at every input dimension; the output plus
    three scratch blocks for Matern (its conversion from d^2). No N x M x D
    or second N x M array is ever built.
    """
    X = _as_points(X, kernel.dim)
    Z = X if Z is None else _as_points(Z, kernel.dim)
    out = np.empty((X.shape[0], Z.shape[0]))
    rows = max(1, _BLOCK_ENTRIES // max(1, Z.shape[0]))
    for start in range(0, X.shape[0], rows):
        block = out[start : start + rows]
        cdist(X[start : start + rows], Z, "sqeuclidean", w=kernel.lam, out=block)
        _kernel_from_sqdist(kernel, block)
    return out
