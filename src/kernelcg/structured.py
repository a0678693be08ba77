"""Gram operators and cross-products, chosen from the kernel and the points.

:func:`gram_structure` reads a kernel's Gram over a point set once and
gives the CG operator v -> K v, K alone, and the contraction
k(X, points) W. An SE kernel on an exact row-major Cartesian grid gives a
:class:`GridSpec`: the Gram factorizes as K_1 kron ... kron K_D, products
cost O(N sum G_d) via sequential mode products, and k(X, grid) W contracts
per-axis kernel rows with W one first-axis slab at a time, so no N x N array
and no N-length row is formed. An equispaced 1-D series, such as one with
missing observations, gives a :class:`ToeplitzGram`, multiplied in
O(T log T) for T grid positions by scatter, FFT and gather. Anything else
gives the :class:`DenseGram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import dspmv

from . import linalg
from .datasets import Dataset
from .kernels import _CROSS_BLOCK_ENTRIES, SQUARED_EXPONENTIAL, Kernel, _as_points, gram, gram_lower, se_kernel

_MAX_GRID_POINTS = 1_000_000  # the largest grid grid_dataset builds


@dataclass(frozen=True)
class MvmOperator:
    """A symmetric linear operator given by its matrix-vector product."""

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]


def dense_operator(A: np.ndarray) -> MvmOperator:
    A = np.asarray(A, dtype=float)
    return MvmOperator(dim=A.shape[0], apply=lambda v: A @ v)


class GramStructure:
    """A kernel's Gram over fixed points: ``operator()`` gives v -> K v.

    One pass forms k(X, points) W for every column of W, over blocks of
    max(1, _CROSS_BLOCK_ENTRIES // r) points, r the entries of a point's row
    in the structure's form; each block's rows are freed before the next's.
    """

    def cross_products(self, X, W) -> np.ndarray:
        """k(X, points) W, for W of shape (N,) or (N, c)."""
        X = _as_points(X, self.dim)
        W = np.asarray(W, dtype=float)
        out = np.empty((X.shape[0],) + W.shape[1:])
        step = max(1, _CROSS_BLOCK_ENTRIES // self._row_entries)
        for start in range(0, X.shape[0], step):
            out[start : start + step] = self._block_product(X[start : start + step], W)
        return out


@dataclass(frozen=True)
class DenseGram(GramStructure):
    """The Gram of `kernel` over `points`: its lower triangle in the operator, row blocks of k(X, points) in products."""

    kernel: Kernel
    points: np.ndarray

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def _row_entries(self) -> int:
        return self.points.shape[0]

    def operator(self) -> MvmOperator:
        """MvmOperator applying v -> K v by BLAS ``spmv`` on K's packed lower triangle, which it holds.

        The triangle is N(N+1)/2 floats, bit-equal to :func:`gram`'s entries
        and assembled beside one block (:func:`kernelcg.kernels.gram_lower`):
        no N x N array. A product reads each stored entry once, half the
        memory a full-storage product reads.
        """
        n = self.points.shape[0]
        packed = np.empty(n * (n + 1) // 2)
        gram_lower(self.kernel, self.points, linalg.packed_columns(packed, n))
        return MvmOperator(dim=n, apply=lambda v: dspmv(n, 1.0, packed, v, lower=1))

    def _block_product(self, X, W) -> np.ndarray:
        return gram(self.kernel, X, self.points) @ W


@dataclass(frozen=True)
class ToeplitzGram(DenseGram):
    """The Gram of a 1-D kernel over points min(points) + spacing * offsets (:func:`toeplitz_offsets`).

    It is a submatrix of the Toeplitz Gram over all T = max(offsets) + 1 positions.
    """

    spacing: float
    offsets: np.ndarray

    def operator(self) -> MvmOperator:
        """MvmOperator applying v -> K v by scatter onto the grid, circulant product and gather.

        The power-of-two circulant embedding (length L < 4 T) is transformed once here; a product costs O(L log L).
        """
        size = int(self.offsets.max()) + 1
        length = 1 << (2 * size - 1).bit_length()
        row = gram(self.kernel, np.zeros((1, 1)), self.spacing * np.arange(size).reshape(-1, 1))[0]
        circulant = np.zeros(length)
        circulant[:size] = row
        circulant[length - size + 1 :] = row[:0:-1]
        transform = np.fft.rfft(circulant)

        def apply(v):
            full = np.zeros(length)
            full[self.offsets] = v
            return np.fft.irfft(transform * np.fft.rfft(full), n=length)[self.offsets]

        return MvmOperator(dim=self.offsets.size, apply=apply)


def gram_structure(kernel: Kernel, points) -> GramStructure:
    """The structure of `kernel`'s Gram over `points`, read off the points.

    1-D points on an equispaced grid that the FFT product pays on (:func:`toeplitz_offsets`) give their
    :class:`ToeplitzGram`, an SE kernel on exact grid points (:func:`grid_axes`) their :class:`GridSpec`,
    anything else the :class:`DenseGram`.
    """
    points = _as_points(points, kernel.dim)
    if kernel.dim == 1 and (series := toeplitz_offsets(points)):
        return ToeplitzGram(kernel, points, *series)
    axes = grid_axes(points) if kernel.family == SQUARED_EXPONENTIAL else None
    return DenseGram(kernel, points) if axes is None else grid_spec(kernel, axes)


def kron_mvm(factors, v) -> np.ndarray:
    """Product (K_1 kron ... kron K_D) v via D sequential mode products.

    The vector is indexed row-major over the grid (first axis slowest).
    Factors must be square; cost is O(N * sum_d G_d) for N = prod G_d.
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    sizes = [np.asarray(K).shape[0] for K in factors]
    n = int(np.prod(sizes))
    if v.size != n:
        raise ValueError(f"vector length {v.size} does not match grid size {n}")
    x = v
    for K in factors:
        K = np.asarray(K, dtype=float)
        g = K.shape[0]
        x = (K @ x.reshape(g, n // g)).T.reshape(-1)
    return x


@dataclass(frozen=True)
class GridSpec(GramStructure):
    """A Cartesian product grid with the per-axis parts of a product kernel.

    `kernels` holds each axis's 1-D kernel and `factors` its Gram over that
    axis; both are built by :func:`grid_spec`.

    k(X, grid) W forms no N-length row of k(X, grid): with A_d the per-axis
    rows k_d(X[:, d], axes[d]) and T the row-wise Khatri-Rao product of the
    trailing axes' rows (N / G_1 entries per point), it is the sum over
    j < G_1 of A_1[:, j] * (T @ W_j), W_j the j-th slab of N / G_1 rows of
    W. Scratch per block of b points: the per-axis rows, T (and, while it is
    built, 1/G_D of it), and two b x c arrays, the running sum and one GEMM.
    """

    axes: tuple
    kernels: tuple
    factors: tuple

    @property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self.axes)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def _row_entries(self) -> int:
        return self.size // self.shape[0]

    def points(self) -> np.ndarray:
        """All grid coordinates, row-major (first axis slowest), shape (N, D)."""
        return _grid_points(self.axes)

    def _block_product(self, X, W) -> np.ndarray:
        first, *trailing = (
            gram(kernel, X[:, d : d + 1], axis.reshape(-1, 1))
            for d, (kernel, axis) in enumerate(zip(self.kernels, self.axes))
        )
        T = np.ones((X.shape[0], 1))
        for row in trailing:
            T = np.einsum("ij,ik->ijk", T, row).reshape(X.shape[0], -1)
        slabs = W.reshape(self.shape[0], T.shape[1], -1)
        out = np.zeros((X.shape[0], slabs.shape[2]))
        for j, slab in enumerate(slabs):
            part = T @ slab
            part *= first[:, j, None]
            out += part
        return out.reshape(X.shape[:1] + W.shape[1:])

    def operator(self) -> MvmOperator:
        """MvmOperator applying v -> (K_1 kron ... kron K_D) v."""
        return MvmOperator(dim=self.size, apply=lambda v: kron_mvm(self.factors, v))

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        """Zero-mean GP draws over the grid via per-axis Cholesky factors.

        One length-N draw, or with an integer `size` a (size, N) stack of
        draws from one factorization of each axis; the stack equals `size`
        successive single draws from the same generator.
        """
        chols = [linalg.cholesky(K).L for K in self.factors]
        draws = rng.standard_normal(self.size if size is None else (size, self.size))
        for draw in draws.reshape(-1, self.size):
            draw[:] = kron_mvm(chols, draw)
        return draws


def _grid_points(axes) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def grid_spec(kernel: Kernel, axes) -> GridSpec:
    """Build per-axis kernels and Gram factors for a product kernel on the given axes.

    Only the squared-exponential family factorizes across dimensions; the
    amplitude is split evenly so the factors multiply back to theta_f.
    """
    if kernel.family != SQUARED_EXPONENTIAL:
        raise ValueError("grid structure requires a product kernel (squared-exponential family)")
    axes = tuple(np.asarray(a, dtype=float).reshape(-1) for a in axes)
    if len(axes) != kernel.dim:
        raise ValueError(f"kernel has {kernel.dim} dimensions but {len(axes)} axes were given")
    amp = kernel.theta_f ** (1.0 / len(axes))
    kernels = tuple(se_kernel([kernel.lam[d]], amp) for d in range(len(axes)))
    factors = tuple(gram(k, a.reshape(-1, 1)) for k, a in zip(kernels, axes))
    return GridSpec(axes=axes, kernels=kernels, factors=factors)


def grid_axes(points) -> Optional[tuple]:
    """The axes whose :meth:`GridSpec.points` are exactly `points`, else None.

    Axis d has as many coordinates as column d has distinct values, read off
    the row-major layout; the points are a grid when these axes rebuild them
    bit for bit. Counting stops once the product of the counts exceeds N, so
    scattered points cost two `np.unique` calls. One-dimensional points
    return None: every point set is a 1-D grid and nothing factorizes.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2 or not X.size:
        return None
    n = X.shape[0]
    sizes = []
    for d in range(X.shape[1]):
        sizes.append(np.unique(X[:, d]).size)
        if np.prod(sizes) > n:
            return None
    if np.prod(sizes) != n:
        return None
    strides = n // np.cumprod(sizes)
    axes = tuple(X[: g * s : s, d].copy() for d, (g, s) in enumerate(zip(sizes, strides)))
    return axes if np.array_equal(_grid_points(axes), X) else None


def toeplitz_offsets(points) -> Optional[tuple]:
    """(spacing, offsets) with 1-D `points` = min(points) + spacing * offsets, else None.

    The offsets are distinct integers from 0, and every point must rebuild
    from them to within 4 ulps of max |t| (t0 + h k, linspace and decimal
    text are within 2). Duplicates, points off the grid by more (such as
    times summed step by step) and a single point give None, and so does a
    span too long for the N points: the FFT product is taken only while
    L log2 L <= N^2 / 4, L the circulant embedding's length, the power of
    two in [2 T, 4 T). On one Xeon core it took 0.57x the dense product's
    time at N = 1000, T = 8 N, 1.1x at T = 16 N, 4x or more at N = 100.
    """
    t = np.asarray(points, dtype=float).reshape(-1)
    n = t.size
    if n < 2:
        return None
    order = np.argsort(t)
    start, span = t[order[0]], t[order[-1]] - t[order[0]]
    gap = np.min(np.diff(t[order]))
    if not (gap > 0 and span < n * n * gap):  # duplicates, or L >= 2 T past the cost rule
        return None
    # The smallest gap carries the rounding of max |t|, which span / gap
    # multiplies by the step count. Refine it by least squares over the
    # points within `reach` steps of the start, doubling the reach: a fit
    # over R steps reads the offsets within 2 R to well under half a step.
    rel, spacing, reach = t[order] - start, gap, 2.0
    while reach * spacing < span:
        near = rel[: np.searchsorted(rel, reach * spacing, side="right")]
        k = np.rint(near / spacing)
        if not k.any():  # no point a step or more out: off any grid
            return None
        spacing, reach = float(k @ near) / float(k @ k), 2.0 * reach
    steps = np.rint(span / spacing)
    length = 1 << int(2 * steps + 1).bit_length()  # of the embedding of T = steps + 1 positions
    if length * (length.bit_length() - 1) > n * n / 4:
        return None
    spacing = span / steps
    offsets = np.rint((t - start) / spacing)
    off_grid = np.max(np.abs(start + spacing * offsets - t)) > 4 * np.spacing(np.max(np.abs(t)))
    if off_grid or np.any(np.diff(offsets[order]) <= 0):
        return None
    return spacing, offsets.astype(np.intp)


def check_grid_size(G: int, D: int) -> None:
    """Raise ValueError unless G >= 1 points per axis on D >= 1 axes make at most _MAX_GRID_POINTS points."""
    if G < 1 or D < 1:
        raise ValueError(f"a grid needs at least 1 point per axis and 1 axis, got g = {G}, d = {D}")
    if G**D > _MAX_GRID_POINTS:
        raise ValueError(f"grid has {G**D} points, exceeding the budget of {_MAX_GRID_POINTS}")


def grid_dataset(G: int, D: int, kernel: Kernel, seed=0, n_test: int = 100) -> Dataset:
    """Synthetic grid regression problem with Kronecker-structured targets.

    Per axis, G points are equally spaced in [-G/4, G/4] and each coordinate
    is perturbed by Gaussian noise of variance 1e-3 - the perturbation
    lives on the axes so the product structure survives. The training targets
    are one GP draw over the grid computed through per-axis Cholesky factors;
    n_test test inputs are uniform over the cube and their targets are drawn
    from the GP conditioned on the grid draw. A size :func:`check_grid_size`
    rejects raises its ValueError before any work.
    """
    check_grid_size(G, D)
    if kernel.dim != D:
        raise ValueError(f"kernel has {kernel.dim} dimensions, grid has {D}")
    rng = np.random.default_rng(seed)
    lo, hi = -G / 4.0, G / 4.0
    axes = [np.linspace(lo, hi, G) + np.sqrt(1e-3) * rng.standard_normal(G) for _ in range(D)]
    spec = grid_spec(kernel, axes)
    X = spec.points()
    y = spec.sample(rng)

    X_star = rng.uniform(lo, hi, size=(n_test, D))
    # Conditional draw at the test inputs. The noise-free grid Gram inverts
    # axis by axis, and with A_d = k_d(X*[:, d], axes[d]) the product
    # k(X*, X) K^{-1} k(X, X*) is the Hadamard product of the A_d K_d^{-1} A_d^T,
    # so no n_test x N array is formed.
    inverses = [linalg.chol_solve(linalg.cholesky(K), np.eye(K.shape[0])) for K in spec.factors]
    mean_star = spec.cross_products(X_star, kron_mvm(inverses, y))
    explained = np.ones((n_test, n_test))
    for d, (axis_kernel, axis, inverse) in enumerate(zip(spec.kernels, spec.axes, inverses)):
        A = gram(axis_kernel, X_star[:, d : d + 1], axis.reshape(-1, 1))
        explained *= A @ inverse @ A.T
    cov_star = gram(kernel, X_star) - explained
    y_star = mean_star + linalg.cholesky(0.5 * (cov_star + cov_star.T)).L @ rng.standard_normal(n_test)

    return Dataset(X=X, y=y, X_star=X_star, y_star=y_star)
