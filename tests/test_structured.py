import runpy
import tempfile
import time
import tracemalloc
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcg import structured
from kernelcg.kernels import _BLOCK_ENTRIES, gram, matern52_kernel, se_kernel
from kernelcg.kmcg import kmcg_fit, kmcg_models_for_steps
from kernelcg.solvers import cg_predict_means
from kernelcg.structured import (
    DenseGram,
    GridSpec,
    ToeplitzGram,
    grid_axes,
    grid_dataset,
    grid_spec,
    gram_structure,
    kron_mvm,
    toeplitz_offsets,
)


def dense_from_factors(factors):
    out = np.asarray(factors[0])
    for K in factors[1:]:
        out = np.kron(out, K)
    return out


def test_kron_mvm_single_factor_is_dense():
    rng = np.random.default_rng(0)
    K = rng.standard_normal((6, 6))
    v = rng.standard_normal(6)
    assert np.allclose(kron_mvm([K], v), K @ v)


def test_kron_mvm_two_factor_hand_case():
    K1 = np.diag([1.0, 2.0])
    K2 = np.ones((2, 2))
    v = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(kron_mvm([K1, K2], v), [1.0, 1.0, 0.0, 0.0])
    assert np.allclose(dense_from_factors([K1, K2]) @ v, [1.0, 1.0, 0.0, 0.0])


def test_kron_mvm_matches_dense_grid_gram():
    kernel = se_kernel([1.0, 0.5, 2.0], 1.3)
    rng = np.random.default_rng(1)
    axes = [np.sort(rng.uniform(-1, 1, 5)) for _ in range(3)]
    spec = grid_spec(kernel, axes)
    K_dense = gram(kernel, spec.points())
    v = rng.standard_normal(spec.size)
    got = kron_mvm(spec.factors, v)
    want = K_dense @ v
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_grid_factors_reproduce_dense_gram():
    kernel = se_kernel([1.0, 1.0, 1.0], 2.0)
    rng = np.random.default_rng(2)
    axes = [np.sort(rng.uniform(-1, 1, 4)) for _ in range(3)]
    spec = grid_spec(kernel, axes)
    assert np.allclose(dense_from_factors(spec.factors), gram(kernel, spec.points()), rtol=1e-10)


def test_grid_requires_product_kernel():
    with pytest.raises(ValueError):
        grid_spec(matern52_kernel([1.0]), [np.linspace(0, 1, 4)])


def _unequal_grid(seed=11):
    # Three axes of different lengths, one of them descending.
    rng = np.random.default_rng(seed)
    axes = [np.sort(rng.uniform(-1, 1, 3)), np.linspace(1, -1, 4), np.sort(rng.uniform(-1, 1, 5))]
    return grid_spec(se_kernel([0.7, 1.9, 3.1], 1.7), axes)


def test_grid_axes_recover_the_axes_of_grid_points():
    spec = _unequal_grid()
    axes = grid_axes(spec.points())
    assert len(axes) == 3 and all(np.array_equal(a, b) for a, b in zip(axes, spec.axes))


def test_grid_axes_reject_everything_but_the_exact_grid_layout():
    rng = np.random.default_rng(12)
    points = _unequal_grid().points()
    assert grid_axes(rng.uniform(-1, 1, (60, 3))) is None
    assert grid_axes(points[rng.permutation(60)]) is None
    assert grid_axes(np.delete(points, 17, axis=0)) is None
    assert grid_axes(np.linspace(0, 1, 7).reshape(-1, 1)) is None  # D = 1 gains nothing


def test_grid_cross_gram_matches_gram_to_rounding():
    # The cross-Gram is the cross-products with W = I. Each entry is a
    # product of D per-axis values with amplitude theta_f^(1/D): at most
    # about 2D + 2 roundings away from gram's.
    spec = _unequal_grid()
    kernel = se_kernel([0.7, 1.9, 3.1], 1.7)
    X_star = np.random.default_rng(13).uniform(-1.2, 1.2, (9, 3))
    got = spec.cross_products(X_star, np.eye(60))
    assert got.shape == (9, 60)
    assert np.max(np.abs(got - gram(kernel, X_star, spec.points()))) <= 8 * np.finfo(float).eps * kernel.theta_f


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 5), min_size=1, max_size=4),
    st.sampled_from([None, 0, 1, 3]),
    st.sampled_from([1, 3, 7]),
)
def test_grid_cross_products_equal_dense_cross_gram_products(seed, shape, columns, block_rows):
    # W is a vector (columns None), or a matrix with 0, 1 or 3 columns; the
    # 7 points go one per block, in blocks of 3 (the last one partial), or
    # in one block. Each side sums N products of entries that agree to
    # 2D + 2 roundings, so they differ by at most (2N + 4D + 8) eps in units
    # of |k(X, grid)| |W|.
    rng = np.random.default_rng(seed)
    D = len(shape)
    kernel = se_kernel(rng.uniform(0.3, 3.0, D), 1.7)
    spec = grid_spec(kernel, [np.sort(rng.uniform(-1, 1, g)) for g in shape])
    X = rng.uniform(-1.2, 1.2, (7, D))
    W = rng.standard_normal(spec.size if columns is None else (spec.size, columns))
    with mock.patch.object(structured, "_CROSS_BLOCK_ENTRIES", block_rows * (spec.size // shape[0])):
        got = spec.cross_products(X, W)
    K = gram(kernel, X, spec.points())
    assert got.shape == (7,) + W.shape[1:]
    tol = (2 * spec.size + 4 * D + 8) * np.finfo(float).eps * (np.abs(K) @ np.abs(W))
    assert np.all(np.abs(got - K @ W) <= tol)


def test_kmcg_keeps_a_grid_only_for_a_product_kernel():
    points = _unequal_grid().points()
    y = np.random.default_rng(14).standard_normal(60)
    assert isinstance(kmcg_fit(se_kernel([0.7, 1.9, 3.1], 1.7), points, y, 0.1, max_steps=3).structure, GridSpec)
    assert isinstance(kmcg_fit(matern52_kernel([0.7, 1.9, 3.1], 1.7), points, y, 0.1, max_steps=3).structure,
                      DenseGram)


def test_grid_operator_probe_invariants():
    kernel = se_kernel([1.0, 1.0], 1.0)
    spec = grid_spec(kernel, [np.linspace(-1, 1, 4), np.linspace(-1, 1, 5)])
    op = spec.operator()
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, spec.size))
    assert np.allclose(op.apply(u + v), op.apply(u) + op.apply(v), rtol=1e-10)
    assert u @ op.apply(v) == pytest.approx(v @ op.apply(u), rel=1e-10)


def test_kron_runtime_subquadratic():
    # The two sizes are timed in turn, best of 12 each, so a burst of load
    # on the host slows both instead of failing the bound.
    kernel = se_kernel([1.0, 1.0, 1.0], 1.0)
    cases = {}
    for g in (16, 32):  # N = 4096 and 32768
        spec = grid_spec(kernel, [np.linspace(-1, 1, g)] * 3)
        cases[g] = (spec.factors, np.random.default_rng(4).standard_normal(spec.size))
    best = {g: np.inf for g in cases}
    for _ in range(12):
        for g, (factors, v) in cases.items():
            start = time.perf_counter()
            kron_mvm(factors, v)
            best[g] = min(best[g], time.perf_counter() - start)
    ratio_quadratic = (32768 / 4096) ** 2
    assert best[32] < ratio_quadratic * max(best[16], 1e-5)


def _series(kernel, offsets, spacing=1.0):
    """The ToeplitzGram of `kernel` over the points spacing * offsets, whatever the cost rule says."""
    offsets = np.asarray(offsets)
    return ToeplitzGram(kernel, (spacing * offsets).reshape(-1, 1), spacing, offsets)


def _dense_toeplitz(first_row):
    t = first_row.size
    return np.array([[first_row[abs(i - j)] for j in range(t)] for i in range(t)])


def test_toeplitz_identity_row():
    # exp(-1e4 / 2) underflows to 0: the Gram over unit spacing is the identity.
    v = np.random.default_rng(5).standard_normal(9)
    assert np.allclose(_series(se_kernel([1e4], 1.0), np.arange(9)).operator().apply(v), v, atol=1e-12)


def test_toeplitz_hand_case():
    # theta_f 2 and metric 2 ln 2: the first row is 2, 2 / 2 = 1 and 2 / 16.
    got = _series(se_kernel([2 * np.log(2.0)], 2.0), np.arange(3)).operator().apply([1.0, 1.0, 1.0])
    assert np.allclose(got, [3.125, 4.0, 3.125], atol=1e-12)


def test_toeplitz_matches_dense():
    rng = np.random.default_rng(6)
    t = 257
    first_row = np.exp(-0.5 * (np.arange(t) / 40.0) ** 2)
    v = rng.standard_normal(t)
    got = _series(se_kernel([1 / 1600], 1.0), np.arange(t)).operator().apply(v)
    want = _dense_toeplitz(first_row) @ v
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_masked_full_mask_reduces_to_toeplitz():
    rng = np.random.default_rng(7)
    t = 32
    kernel = matern52_kernel([0.04], 1.0)
    first_row = gram(kernel, np.zeros((1, 1)), np.arange(t, dtype=float).reshape(-1, 1))[0]
    v = rng.standard_normal(t)
    assert np.allclose(_series(kernel, np.arange(t)).operator().apply(v), _dense_toeplitz(first_row) @ v)


def test_masked_single_index():
    kernel = se_kernel([1 / 9], 1.3)
    assert np.allclose(_series(kernel, [5]).operator().apply(np.array([2.0])), 2.0 * 1.3)


def test_masked_matches_dense_submatrix():
    rng = np.random.default_rng(8)
    t = 64
    kernel = se_kernel([0.02], 1.7)
    mask = np.sort(rng.choice(t, size=40, replace=False))
    grid = np.arange(t, dtype=float).reshape(-1, 1)
    K_sub = gram(kernel, grid[mask])
    v = rng.standard_normal(40)
    got = _series(kernel, mask).operator().apply(v)
    want = K_sub @ v
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_masked_operator_probe_invariants():
    rng = np.random.default_rng(9)
    t = 50
    kernel = se_kernel([0.05], 1.0)
    mask = np.sort(rng.choice(t, size=30, replace=False))
    op = _series(kernel, mask).operator()
    u, v = rng.standard_normal((2, 30))
    assert np.allclose(op.apply(u + v), op.apply(u) + op.apply(v), rtol=1e-10)
    assert u @ op.apply(v) == pytest.approx(v @ op.apply(u), rel=1e-10)


def test_masked_operator_builds_the_embedding_once():
    rng = np.random.default_rng(10)
    t = 70
    mask = np.sort(rng.choice(t, size=45, replace=False))
    series = _series(se_kernel([0.05], 1.3), mask)
    u, v = rng.standard_normal((2, 45))
    with mock.patch.object(structured.np.fft, "rfft", wraps=np.fft.rfft) as rfft:
        op = series.operator()
        products = [op.apply(u), op.apply(v)]
    assert rfft.call_count == 1 + 2  # the embedding's transform, then one per product
    for w, got in zip((u, v), products):
        assert np.array_equal(got, series.operator().apply(w))


@pytest.mark.parametrize("family", [se_kernel, matern52_kernel])
@pytest.mark.parametrize("spacing", [1.0, 0.1])
@pytest.mark.parametrize("shuffled", [False, True])
def test_gram_structure_reads_a_series_off_equispaced_points(family, spacing, shuffled):
    # 300 of 400 positions of a grid that starts at 3.7; load_csv shuffles
    # rows that have no split column, so the points may come in any order.
    rng = np.random.default_rng(17)
    offsets = np.sort(rng.choice(400, size=300, replace=False))
    offsets = rng.permutation(offsets) if shuffled else offsets
    points = (3.7 + spacing * offsets).reshape(-1, 1)
    kernel = family([0.01 / spacing**2], 1.3)
    structure = gram_structure(kernel, points)
    assert type(structure) is ToeplitzGram
    assert np.array_equal(structure.offsets, offsets - offsets.min())
    v = rng.standard_normal(300)
    want = gram(kernel, points) @ v
    got = structure.operator().apply(v)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_gram_structure_reads_a_long_series_at_a_large_offset():
    # The smallest gap of these times is 2.99886e-7: its rounding, an ulp of
    # 1e6, times 4095 steps once made span / gap round to the wrong T, and
    # the points stayed dense. That ulp is 4e-4 of a step, so the times
    # themselves place the points no better; the dense Gram compared is the
    # one of the grid read off them, spacing * offsets.
    offsets = np.arange(4096)
    points = (1e6 + 3e-7 * offsets).reshape(-1, 1)
    kernel = se_kernel([1e12], 1.3)
    structure = gram_structure(kernel, points)
    assert type(structure) is ToeplitzGram
    assert np.array_equal(structure.offsets, offsets)
    assert structure.spacing == pytest.approx(3e-7, rel=1e-6)
    v = np.random.default_rng(19).standard_normal(4096)
    want = gram(kernel, structure.spacing * offsets.reshape(-1, 1)) @ v
    got = structure.operator().apply(v)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _jittered(points, h):
    return points + 1e-12 * h * (-1.0) ** np.arange(points.size).reshape(points.shape)


@pytest.mark.parametrize("case, points", [
    ("random", np.random.default_rng(18).uniform(0, 400, (300, 1))),
    ("duplicate", np.append(np.arange(300.0), 150.0).reshape(-1, 1)),
    # 1e-12 of the spacing off the grid: the series loader's 1e-9 check
    # accepts it, but it is 4.4 and 7 times the 4-ulp rebuild allowance.
    ("jittered, spacing 1", _jittered(np.arange(300.0).reshape(-1, 1), 1.0)),
    ("jittered, spacing 0.1", _jittered(0.1 * np.arange(300.0).reshape(-1, 1), 0.1)),
    ("span 64 N", np.r_[np.arange(299.0), 64 * 300].reshape(-1, 1)),
    ("single point", np.array([[2.5]])),
])
def test_gram_structure_keeps_the_dense_gram_off_an_affordable_series(case, points):
    assert type(gram_structure(se_kernel([0.01], 1.0), points)) is DenseGram


def test_toeplitz_cost_rule_boundary():
    # At N = 300 the rule allows L log2 L <= 22500: T = 512 has L = 1024
    # (10240) and T = 513 has L = 2048 (22528).
    offsets = np.r_[np.arange(299), 511]
    assert toeplitz_offsets(offsets.astype(float)) is not None
    assert toeplitz_offsets(np.r_[np.arange(299), 512].astype(float)) is None
    spacing, got = toeplitz_offsets(0.25 * offsets)
    assert spacing == 0.25 and np.array_equal(got, offsets)


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_operator_holds_one_triangle_beside_one_assembly_block():
    # N = 700 scattered points: the operator holds K's packed lower
    # triangle, N(N+1)/2 floats, assembled beside one block of
    # _BLOCK_ENTRIES floats; the full Gram would take N^2. Its products are
    # those of the full-storage Gram to rounding.
    rng = np.random.default_rng(23)
    kernel, X = se_kernel([2.0, 0.5], 1.3), rng.uniform(0, 2, (700, 2))
    structure = gram_structure(kernel, X)
    assert type(structure) is DenseGram
    tracemalloc.start()
    try:
        operator = structure.operator()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    triangle = 700 * 701 // 2 * 8
    assert held <= triangle + (4 << 10)
    assert peak <= triangle + _BLOCK_ENTRIES * 8 + (16 << 10)
    v = rng.standard_normal(700)
    want = gram(kernel, X) @ v
    assert np.max(np.abs(operator.apply(v) - want)) <= 1e-13 * np.max(np.abs(want))


def test_series_fit_and_cg_means_hold_no_dense_gram():
    # T = 4096 positions, N = 2048 observed, 100 of the others to predict, a
    # budget of 40: each call peaks below a quarter of the 32 MiB Gram.
    rng = np.random.default_rng(19)
    positions = rng.permutation(4096)
    X, X_star = positions[:2048].reshape(-1, 1) * 1.0, positions[2048:2148].reshape(-1, 1) * 1.0
    y = np.sin(0.05 * X[:, 0]) + 0.1 * rng.standard_normal(2048)
    kernel = se_kernel([1e-3], 1.0)
    assert type(gram_structure(kernel, X)) is ToeplitzGram
    ceiling = 2048**2 * 8 / 4
    assert _peak(lambda: kmcg_models_for_steps(kernel, X, y, 0.01, [40], eps=0.0)) < ceiling
    assert _peak(lambda: cg_predict_means(kernel, X, y, 0.01, X_star, [40], eps=0.0)) < ceiling


def test_grid_sample_stack_equals_successive_draws_from_one_factorization():
    spec = _unequal_grid()
    rng = np.random.default_rng(15)
    singles = np.stack([spec.sample(rng) for _ in range(4)])
    with mock.patch.object(structured.linalg, "cholesky", wraps=structured.linalg.cholesky) as factor:
        stack = spec.sample(np.random.default_rng(15), size=4)
    assert factor.call_count == 3
    assert np.array_equal(stack, singles)
    assert spec.sample(rng, size=0).shape == (0, 60)


def test_grid_dataset_shapes_and_determinism():
    kernel = se_kernel([1.0, 1.0], 1.0)
    data = grid_dataset(10, 2, kernel, seed=3)
    assert data.n_train == 100
    assert data.n_test == 100
    again = grid_dataset(10, 2, kernel, seed=3)
    assert np.array_equal(data.X, again.X)
    assert np.array_equal(data.y, again.y)
    assert np.array_equal(data.X_star, again.X_star)
    assert np.array_equal(data.y_star, again.y_star)
    other = grid_dataset(10, 2, kernel, seed=4)
    assert not np.array_equal(data.y, other.y)


def test_grid_dataset_memory_budget():
    kernel = se_kernel([1.0, 1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        grid_dataset(101, 3, kernel)  # 1030301 points, past the 10^6 guard


@pytest.mark.parametrize("G, D", [(3, 0), (0, 3), (3, -1), (-2, 2)])
def test_grid_dataset_rejects_a_size_below_one(G, D):
    # These once ended in a ZeroDivisionError, a failed reshape or a
    # negative-dimension error that named neither size.
    with pytest.raises(ValueError, match=f"got g = {G}, d = {D}$"):
        grid_dataset(G, D, se_kernel([1.0], 1.0))


@pytest.mark.parametrize("G, D, n_test, seed", [(4, 2, 10, 0), (6, 2, 10, 1), (6, 3, 20, 2)])
def test_grid_dataset_test_draw_matches_the_dense_conditional(G, D, n_test, seed):
    # Replay the generator through the dense conditional: k(X*, X) and one
    # Kronecker solve per test point. Few test points keep the conditional
    # covariance well conditioned, so its Cholesky factor does not amplify
    # the rounding that separates the two ways of forming it.
    kernel = se_kernel(np.full(D, 1.0), 1.7)
    data = grid_dataset(G, D, kernel, seed=seed, n_test=n_test)
    rng = np.random.default_rng(seed)
    axes = [np.linspace(-G / 4, G / 4, G) + np.sqrt(1e-3) * rng.standard_normal(G) for _ in range(D)]
    spec = grid_spec(kernel, axes)
    y = spec.sample(rng)
    X_star = rng.uniform(-G / 4, G / 4, size=(n_test, D))
    assert np.array_equal(data.X, spec.points()) and np.array_equal(data.y, y)
    assert np.array_equal(data.X_star, X_star)
    inverses = [np.linalg.inv(K) for K in spec.factors]
    K_ts = gram(kernel, X_star, data.X)
    mean = K_ts @ kron_mvm(inverses, y)
    cov = gram(kernel, X_star) - K_ts @ np.column_stack([kron_mvm(inverses, row) for row in K_ts])
    want = mean + np.linalg.cholesky(0.5 * (cov + cov.T)) @ rng.standard_normal(n_test)
    assert np.max(np.abs(data.y_star - want)) <= 1e-8 * np.max(np.abs(want))


def test_grid_sampling_empirical_covariance():
    # Covariance of grid draws must match the dense Gram within five
    # standard errors on a small grid. The draws come from one call, which
    # factors each axis once.
    kernel = se_kernel([1.0, 1.0], 1.0)
    rng = np.random.default_rng(10)
    axes = [np.array([-0.5, 0.0, 0.5]), np.array([-0.4, 0.1, 0.6])]
    spec = grid_spec(kernel, axes)
    target = gram(kernel, spec.points())
    n_draws = 2000
    draws = spec.sample(rng, n_draws)
    emp = draws.T @ draws / n_draws
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n_draws)
    assert np.all(np.abs(emp - target) <= 5.0 * se + 1e-12)


# Each demo and a line of what it prints. Demo 05 fits KMCG on a Kronecker
# operator with eps=0, so CG runs all N = 100 steps, until its residual
# collapses to rounding.
DEMOS = {
    "01_exact_gp_regression": ["log evidence:"],
    "02_lowrank_baselines": ["far-field variance"],
    "03_cg_vs_kmcg": ["at P = N both are exact"],
    "04_kernel_posterior_uncertainty": ["posterior sd:"],
    "05_structured_grids": ["learned-kernel mean error", "structured vs dense product agree"],
    "06_benchmark_harness": ["rerunning with the same master seed"],
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # demo 06 writes its CSV there
    runpy.run_path(str(Path(__file__).parents[1] / "demos" / f"{demo}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert all(line in out for line in DEMOS[demo])
    assert not any(tmp_path.iterdir()), "the demo left files behind"
