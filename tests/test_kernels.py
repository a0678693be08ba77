import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kernelcg import kernels
from kernelcg.kernels import Kernel, gram, matern52_kernel, se_kernel


def test_zero_distance_gives_amplitude():
    x = np.array([0.3, -1.2])
    for kernel in (se_kernel([1.0, 2.0], 1.7), matern52_kernel([1.0, 2.0], 1.7)):
        assert gram(kernel, x[None], x[None])[0, 0] == pytest.approx(1.7)


def test_unit_distance_values():
    x, z = np.array([0.0]), np.array([1.0])
    se = se_kernel([1.0], 1.0)
    assert gram(se, x[None], z[None])[0, 0] == pytest.approx(np.exp(-0.5))
    assert gram(se, x[None], z[None])[0, 0] == pytest.approx(0.606531, abs=1e-6)
    mat = matern52_kernel([1.0], 1.0)
    expected = (1.0 + np.sqrt(5.0) + 5.0 / 3.0) * np.exp(-np.sqrt(5.0))
    assert gram(mat, x[None], z[None])[0, 0] == pytest.approx(expected)
    assert gram(mat, x[None], z[None])[0, 0] == pytest.approx(0.523994, abs=1e-6)


def test_dimension_mismatch():
    kernel = se_kernel([1.0, 1.0])
    with pytest.raises(ValueError):
        gram(kernel, np.zeros((1, 3)), np.zeros((1, 3)))


def test_invalid_parameters():
    with pytest.raises(ValueError):
        se_kernel([-1.0])
    with pytest.raises(ValueError):
        se_kernel([1.0], 0.0)
    with pytest.raises(ValueError):
        Kernel("cubic", np.array([1.0]))


def test_gram_single_point():
    kernel = se_kernel([2.0], 3.0)
    assert np.allclose(gram(kernel, [[0.5]]), [[3.0]])


def test_gram_symmetric_and_psd():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (20, 3))
    for kernel in (se_kernel([1.0, 2.0, 0.5], 1.3), matern52_kernel([1.0, 2.0, 0.5], 1.3)):
        K = gram(kernel, X)
        assert np.array_equal(K, K.T)  # bit-exact symmetry for a shared point set
        assert np.min(np.linalg.eigvalsh(K)) >= -1e-10 * kernel.theta_f
        assert np.allclose(np.diag(K), kernel.theta_f)


def test_gram_cross_transpose():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, (7, 2))
    Z = rng.uniform(-1, 1, (5, 2))
    kernel = se_kernel([0.7, 1.4], 2.0)
    assert np.allclose(gram(kernel, X, Z), gram(kernel, Z, X).T, rtol=1e-15)


def test_stationarity_under_shifts():
    rng = np.random.default_rng(2)
    kernel = matern52_kernel([1.0, 0.3], 0.9)
    for _ in range(10):
        x, z, t = rng.standard_normal((3, 2))
        shifted = gram(kernel, (x + t)[None], (z + t)[None])[0, 0]
        assert shifted == pytest.approx(gram(kernel, x[None], z[None])[0, 0], rel=1e-12)


def test_monotone_decay_in_distance():
    distances = np.linspace(0.0, 5.0, 60).reshape(-1, 1)
    origin = np.zeros((1, 1))
    for kernel in (se_kernel([1.0]), matern52_kernel([1.0])):
        values = gram(kernel, origin, distances)[0]
        assert np.all(np.diff(values) < 0.0)


def test_se_entries_in_unit_interval():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, (15, 2))
    kernel = se_kernel([1.0, 1.0], 2.5)
    K = gram(kernel, X)
    assert np.all(K > 0.0) and np.all(K <= 2.5 + 1e-15)


def test_high_dimension_compensated_sum_matches():
    rng = np.random.default_rng(4)
    d = 40  # beyond the compensated-summation threshold
    X = rng.standard_normal((6, d))
    Z = rng.standard_normal((4, d))
    kernel = se_kernel(np.full(d, 0.3), 1.0)
    K = gram(kernel, X, Z)
    naive = np.array([[np.exp(-0.5 * np.sum(0.3 * (x - z) ** 2)) for z in Z] for x in X])
    assert np.allclose(K, naive, rtol=1e-12)


# ---------------------------------------------------------------------------
# Properties of the row-blocked assembly.


def _broadcast_gram(kernel, X, Z):
    """Plain N x M x D broadcast assembly, the reference for gram.

    Each term is (lam * diff) * diff, the product order of scipy's weighted
    cdist; up to seven axes numpy sums them in axis order, as cdist does.
    """
    diff = X[:, None, :] - Z[None, :, :]
    d2 = ((kernel.lam * diff) * diff).sum(axis=-1)
    if kernel.family == "se":
        return kernel.theta_f * np.exp(-0.5 * d2)
    sqrt5_d = np.sqrt(5.0) * np.sqrt(d2)
    return kernel.theta_f * (1.0 + sqrt5_d + (5.0 / 3.0) * d2) * np.exp(-sqrt5_d)


@st.composite
def _problems(draw, max_dim=40, max_points=12):
    """A kernel with two point sets (either may be empty) in its dimension."""
    dim = draw(st.integers(1, max_dim))
    n = draw(st.integers(0, max_points))
    m = draw(st.integers(0, max_points))
    coords = st.floats(-3.0, 3.0)
    X = draw(hnp.arrays(float, (n, dim), elements=coords))
    Z = draw(hnp.arrays(float, (m, dim), elements=coords))
    lam = draw(hnp.arrays(float, dim, elements=st.floats(0.05, 5.0)))
    theta_f = draw(st.floats(0.1, 10.0))
    family = draw(st.sampled_from(["se", "matern52"]))
    return Kernel(family, lam, theta_f), X, Z


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@_PROPERTY
@given(_problems(max_dim=7))
def test_gram_equals_broadcast_reference_up_to_seven_dims(problem):
    kernel, X, Z = problem
    assert np.array_equal(gram(kernel, X, Z), _broadcast_gram(kernel, X, Z))


@_PROPERTY
@given(_problems())
def test_gram_close_to_broadcast_reference_up_to_forty_dims(problem):
    # From eight axes on the reference sums in another order (and above 32
    # gram compensates), so only the last bits may differ.
    kernel, X, Z = problem
    K = gram(kernel, X, Z)
    assert K.shape == (X.shape[0], Z.shape[0])
    assert np.all(np.abs(K - _broadcast_gram(kernel, X, Z)) <= 1e-15 * kernel.theta_f)


@_PROPERTY
@given(_problems())
def test_gram_symmetric_psd_with_exact_diagonal(problem):
    kernel, X, _ = problem
    K = gram(kernel, X)
    assert np.array_equal(K, K.T)
    assert np.all(np.diag(K) == kernel.theta_f)
    if X.shape[0]:
        assert np.min(np.linalg.eigvalsh(K)) >= -1e-12 * X.shape[0] * kernel.theta_f


@_PROPERTY
@given(_problems(), st.integers(1, 40))
def test_gram_independent_of_block_size(problem, block_entries):
    # Small blocks put the row-block boundaries everywhere: partial last
    # blocks, and rows longer than a block (one row per block).
    kernel, X, Z = problem
    with mock.patch.object(kernels, "_BLOCK_ENTRIES", block_entries):
        blocked = gram(kernel, X, Z)
    assert np.array_equal(blocked, gram(kernel, X, Z))


@pytest.mark.parametrize("n, m", [
    (700, 100),  # 327 rows per block: the last block holds 46
    (3, kernels._BLOCK_ENTRIES + 5),  # one row per block
    (0, 9),
    (9, 0),
])
def test_gram_block_boundaries_at_the_real_block_size(n, m):
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, (n, 3))
    Z = rng.uniform(-1, 1, (m, 3))
    for kernel in (se_kernel([1.0, 2.0, 0.5], 1.3), matern52_kernel([1.0, 2.0, 0.5], 1.3)):
        assert np.array_equal(gram(kernel, X, Z), _broadcast_gram(kernel, X, Z))


@pytest.mark.parametrize("kernel, scratch_blocks", [
    (se_kernel(np.full(4, 0.5), 1.2), 0),  # cdist writes straight into the output
    (matern52_kernel(np.full(4, 0.5), 1.2), 4),
    (se_kernel(np.full(40, 0.05), 1.2), 4),  # the compensated sum
], ids=["se", "matern52", "se-40d"])
def test_gram_memory_within_stated_ceiling(kernel, scratch_blocks):
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, (600, kernel.dim))
    Z = rng.uniform(-1, 1, (500, kernel.dim))
    tracemalloc.start()
    try:
        K = gram(kernel, X, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = max(kernels._BLOCK_ENTRIES, Z.shape[0]) * K.itemsize
    assert peak <= K.nbytes + scratch_blocks * block + 64 * 1024


@pytest.mark.parametrize("kernel", [
    se_kernel([1.0, 2.0, 0.5], 1.3),
    matern52_kernel([1.0, 2.0, 0.5], 1.3),
    se_kernel(np.linspace(0.05, 2.0, 40), 1.3),  # the compensated sum
], ids=["se", "matern52", "se-40d"])
def test_gram_independent_of_input_layout(kernel):
    rng = np.random.default_rng(7)
    X = rng.uniform(-1, 1, (2 * 23, kernel.dim))
    Z = rng.uniform(-1, 1, (19, kernel.dim))
    reference = gram(kernel, X[::2].copy(), Z)
    assert not X[::2].flags.c_contiguous
    assert np.array_equal(gram(kernel, X[::2], Z), reference)  # strided row view
    assert np.array_equal(gram(kernel, np.asfortranarray(X[::2]), np.asfortranarray(Z)), reference)
    assert np.array_equal(gram(kernel, Z, X[::2]), gram(kernel, Z, X[::2].copy()))
    # A one-axis kernel on a column of a wider array, as GridSpec.cross_products builds its rows.
    axis = se_kernel([kernel.lam[1]], kernel.theta_f)
    column = X[:, 1:2]
    assert not column.flags.c_contiguous
    assert np.array_equal(gram(axis, column, Z[:, 1:2]), gram(axis, column.copy(), Z[:, 1:2].copy()))
