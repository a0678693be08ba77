import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kernelcg import exact, kernels, kmcg, lowrank, solvers
from kernelcg.harness import ExperimentConfig
from kernelcg.kernels import Kernel, gram, matern52_kernel, se_kernel
from mpref import gram_reference


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


@pytest.mark.parametrize("theta_f", [0.0, -1.0, np.inf, np.nan])
def test_amplitude_must_be_positive_and_finite(theta_f):
    # An infinite amplitude once built a kernel whose Gram only failed in the
    # oracle's factorization, as "array must not contain infs or NaNs".
    for make in (se_kernel, matern52_kernel):
        with pytest.raises(ValueError, match="theta_f must be positive and finite"):
            make([1.0], theta_f)


_KERNEL = se_kernel([1.0, 1.0])
_X = np.random.default_rng(3).uniform(0, 2, (12, 2))
_Y = np.sin(_X[:, 0])
_ENTRIES = {
    "exact.fit": lambda s: exact.fit(_KERNEL, _X, _Y, s),
    "kmcg_fit": lambda s: kmcg.kmcg_fit(_KERNEL, _X, _Y, s, max_steps=2),
    "kmcg_models_for_steps": lambda s: kmcg.kmcg_models_for_steps(_KERNEL, _X, _Y, s, steps=(1, 2)),
    "cg_predict_means": lambda s: solvers.cg_predict_means(_KERNEL, _X, _Y, s, _X[:3], [2]),
    **{f"InducingFits {m}": lambda s, m=m: lowrank.InducingFits(_KERNEL, _X, _Y, s, _X[:4], _X[:3]).predict(m)
       for m in ("sor", "dtc", "fitc", "vfe")},
    "PbrFits": lambda s: lowrank.PbrFits(lowrank.se_eigen_expansion(_KERNEL, 1.0, 0.5, 4), _X, _Y, s, _X[:3]).predict(2),
    "ExperimentConfig": lambda s: ExperimentConfig(_KERNEL, s),
}


@pytest.mark.parametrize("sigma2", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_every_library_entry_requires_a_positive_finite_sigma2(entry, sigma2):
    # At sigma2 = inf kmcg_fit, cg_predict_means and the inducing baselines
    # once returned a zero mean, and cg_predict_means at sigma2 = -1 a mean
    # marked breakdown, each without an error.
    with pytest.raises(ValueError, match=f"sigma2 must be positive and finite, got {sigma2}"):
        _ENTRIES[entry](sigma2)
    _ENTRIES[entry](0.1)


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


def test_high_dimension_gram_matches_naive_sum():
    rng = np.random.default_rng(4)
    d = 40
    X = rng.standard_normal((6, d))
    Z = rng.standard_normal((4, d))
    kernel = se_kernel(np.full(d, 0.3), 1.0)
    K = gram(kernel, X, Z)
    naive = np.array([[np.exp(-0.5 * np.sum(0.3 * (x - z) ** 2)) for z in Z] for x in X])
    assert np.allclose(K, naive, rtol=1e-12)


@pytest.mark.parametrize("dim", [33, 64, 256])
def test_gram_within_summation_error_bound_of_a_40_digit_reference(dim):
    # cdist sums d^2 = sum_i lam_i diff_i^2 recursively in axis order. Each
    # rounded term (the difference and two products) is off by about 3u and
    # the sum of D nonnegative terms adds at most (D - 1)u, so d^2 is within
    # about (D + 2)u relative; exp(-d^2 / 2) turns that into d^2 / 2 times as
    # much, and the kernel's own few roundings fit in the remaining margin.
    rng = np.random.default_rng(dim)
    scale = np.geomspace(0.05, 2.0, 6)[:, None]  # d^2 from about 0.02 to 20
    X = scale * rng.standard_normal((6, dim))
    Z = scale[:5] * rng.standard_normal((5, dim))
    lam = rng.uniform(0.5, 1.5, dim) * (4.0 / dim)
    u = np.finfo(float).eps / 2
    for kernel in (se_kernel(lam, 1.3), matern52_kernel(lam, 1.3)):
        d2, reference = gram_reference(kernel, X, Z)
        bound = (dim + 3) * u * (1.0 + d2 / 2.0) * reference
        assert np.all(np.abs(gram(kernel, X, Z) - reference) <= bound)


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
    # From eight axes on the reference sums in another order, so only the
    # last bits may differ.
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
    (se_kernel(np.full(40, 0.05), 1.2), 0),  # cdist at every input dimension
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
    se_kernel(np.linspace(0.05, 2.0, 40), 1.3),
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
