import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelcg import exact, kmcg, linalg, solvers, structured
from kernelcg.datasets import TOY_DEFAULT_SIGMA2, gen_toy, toy_kernel
from kernelcg.kernels import gram, se_kernel
from kernelcg.kmcg import (
    error_bound_ratio,
    kmcg_evidence,
    kmcg_evidence_terms,
    kmcg_fit,
    kmcg_kernel_gram,
    kmcg_mean,
    kmcg_models_for_steps,
    kmcg_predictions,
    kmcg_sample,
    kmcg_uncertainty_gram,
    kmcg_var,
)
from kernelcg.lowrank import choose_inducing
from kernelcg.structured import GridSpec, grid_spec
from brute import gauss_solve, mvn_logpdf
from mpref import kmcg_reference


def _problem(seed, n, d=2, lam=2.0, theta=1.5, sigma2=0.1):
    rng = np.random.default_rng(seed)
    kernel = se_kernel(np.full(d, lam), theta)
    X = rng.uniform(0, 2, (n, d))
    y = rng.standard_normal(n)
    return kernel, X, y, sigma2, rng


# --- fitting -----------------------------------------------------------------


def test_fit_toy_dataset_full_budget():
    data = gen_toy(seed=0)
    model = kmcg_fit(toy_kernel(), data.X, data.y, TOY_DEFAULT_SIGMA2)
    assert model.X_M.shape[0] == 100
    assert 0 < model.steps <= 100


def _dense_points(rng):
    return se_kernel([2.0, 2.0], 1.5), rng.uniform(0, 2, (15, 2)), rng.uniform(0, 2, (5, 2))


def _grid_points(rng):
    kernel, X, _, _, _ = _grid_problem(3, (3, 4))
    return kernel, X, rng.uniform(0, 2, (5, 2))


def _series_points(rng):
    times = rng.permutation(400).reshape(-1, 1) * 1.0  # 300 of 400 unit-spaced times are observed
    return se_kernel([1e-2], 1.5), times[:300], times[300:305]


@pytest.mark.parametrize("points, structure", [
    (_dense_points, structured.DenseGram), (_grid_points, GridSpec), (_series_points, structured.ToeplitzGram)])
def test_zero_targets_prior_fallback(points, structure):
    # With no directions (zero targets, or a budget of 0) both factors are
    # 0 x 0 and every formula gives the prior, bit for bit.
    kernel, X, X_star = points(np.random.default_rng(1))
    n, n_star, sigma2 = X.shape[0], X_star.shape[0], 0.1
    y = np.random.default_rng(2).standard_normal(n)
    zero_targets = kmcg_fit(kernel, X, np.zeros(n), sigma2)
    (zero_budget,) = kmcg_models_for_steps(kernel, X, y, sigma2, [0]).values()
    for model in (zero_targets, zero_budget):
        assert type(model.structure) is structure
        assert model.steps == model.factor1.dim == model.factor2.dim == 0
        assert np.array_equal(kmcg_mean(model, X_star), np.zeros(n_star))
        assert np.array_equal(kmcg_var(model, X_star), gram(kernel, X_star))
        assert np.array_equal(kmcg_kernel_gram(model, X_star), np.zeros((n_star, n_star)))
        assert np.array_equal(kmcg_kernel_gram(model, X_star, X[:3]), np.zeros((n_star, 3)))
        assert kmcg_evidence_terms(model) == (-0.5 * (model.y @ model.y) / sigma2, -0.5 * n * np.log(sigma2))
        ((mean, var),) = kmcg_predictions([model], X_star)
        assert np.array_equal(mean, np.zeros(n_star)) and np.array_equal(var, np.full(n_star, kernel.theta_f))


def test_trace_products_reused_and_r_aliased():
    kernel, X, y, sigma2, _ = _problem(2, 25)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=25)
    assert model.R is model.Z  # M = N shares the product matrix
    # Bit for bit the products of the operator CG ran on, which holds K_M's
    # packed triangle; to rounding those of the full K_M.
    operator = structured.gram_structure(kernel, model.X_M).operator()
    K_M = gram(kernel, model.X_M)
    for i in range(model.steps):
        assert np.array_equal(model.Z[:, i], operator.apply(model.S[:, i]))
        assert np.allclose(model.Z[:, i], K_M @ model.S[:, i], rtol=0.0, atol=1e-13 * np.abs(K_M).sum())
    G = model.S.T @ model.Z
    assert np.max(np.abs(G - G.T)) <= 1e-10 * np.max(np.abs(G))


def test_subset_fit_assembles_cross_products():
    kernel, X, y, sigma2, _ = _problem(3, 40)
    model = kmcg_fit(kernel, X, y, sigma2, M=12, seed=4, eps=0.0, max_steps=12)
    assert model.R.shape == (40, model.steps)
    want = gram(kernel, X, model.X_M) @ model.S
    assert np.allclose(model.R, want, rtol=1e-12)


def _scattered_subset(rng):
    kernel, X, y, sigma2, _ = _problem(3, 40)
    return kmcg_fit(kernel, X, y, sigma2, M=12, seed=4, eps=0.0, max_steps=6), X, rng.uniform(0, 2, (23, 2))


def _grid_problem(seed, shape, theta=1.7, sigma2=0.1):
    """SE with an ARD metric on a row-major grid with unequal, perturbed axes in [0, 2]."""
    rng = np.random.default_rng(seed)
    kernel = se_kernel([0.7, 1.9, 3.1][: len(shape)], theta)
    axes = [np.linspace(0, 2, g) + 0.05 * rng.standard_normal(g) for g in shape]
    X = grid_spec(kernel, axes).points()
    return kernel, X, rng.standard_normal(X.shape[0]), sigma2, rng


def _full_grid(rng):
    kernel, X, y, sigma2, _ = _grid_problem(3, (3, 4, 5))
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=6)
    assert isinstance(model.structure, GridSpec) and np.array_equal(model.structure.points(), model.X_M)
    return model, X, rng.uniform(0, 2, (23, 3))


@pytest.mark.parametrize("block_entries, problem", [
    pytest.param(entries, problem, id=prefix + str(entries))
    for prefix, problem in (("", _scattered_subset), ("grid-", _full_grid))
    for entries in (1, 100, 1 << 21)
])
def test_predictions_in_cross_gram_row_blocks_match_full_cross_gram(monkeypatch, block_entries, problem):
    # One row per block, partial last blocks, and one block for everything;
    # on a grid each block is contracted one first-axis slab at a time.
    model, X, X_star = problem(np.random.default_rng(3))
    kernel = model.kernel
    monkeypatch.setattr(structured, "_CROSS_BLOCK_ENTRIES", block_entries)
    K_star = gram(kernel, X_star, model.X_M)
    assert np.allclose(kmcg_mean(model, X_star), K_star @ model.mean_weights, rtol=1e-13, atol=1e-15)
    assert np.allclose(_shared_features(model, X_star), model.S.T @ K_star.T, rtol=1e-13, atol=1e-15)
    assert np.allclose(model.R, gram(kernel, X, model.X_M) @ model.S, rtol=1e-12)


def _shared_features(model, points):
    """U = S^T k(X_M, points), the features every prediction shares."""
    return model.structure.cross_products(points, model.S).T


def _predictions_of_one(model, points):
    return kmcg_predictions([model], points)


@pytest.mark.parametrize("predict, grid", [
    pytest.param(predict, grid, id=("grid-" if grid else "") + predict.__name__)
    for grid in (False, True)
    for predict in (kmcg_mean, _shared_features, _predictions_of_one)
])
def test_prediction_memory_is_one_cross_gram_block(monkeypatch, predict, grid):
    # 4000 test points against M = 300 would be a 9.6 MB cross-Gram; with
    # 4096-entry blocks only the (P x) n output and one small block are live.
    # On the 5 x 6 x 10 grid a block is 4096 // 60 = 68 points, and holds
    # their per-axis rows (5 + 6 + 10 floats each), trailing product (60),
    # the 6-float product it is built from and one GEMM result of c columns.
    if grid:
        kernel, X, y, sigma2, rng = _grid_problem(3, (5, 6, 10))
    else:
        kernel, X, y, sigma2, rng = _problem(3, 300)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=5)
    assert isinstance(model.structure, GridSpec) == grid
    n, P = 4000, model.steps
    X_star = rng.uniform(0, 2, (n, X.shape[1]))
    monkeypatch.setattr(structured, "_CROSS_BLOCK_ENTRIES", 1 << 12)
    tracemalloc.start()
    try:
        predict(model, X_star)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if grid:
        # Columns c of the products, and n-length arrays live at once: the
        # products, plus for kmcg_predictions three P x n arrays.
        c, live = {kmcg_mean: (1, 1), _shared_features: (P, P), _predictions_of_one: (1 + P, 1 + 4 * P)}[predict]
        block = (1 << 12) // 60 * (5 + 6 + 10 + 60 + 6 + c)
        assert peak <= 8 * (n * live + block) + (16 << 10)
    else:
        assert peak <= n * 300 * 8 / 10


def test_fit_finds_the_grid_operator_by_itself():
    # On a grid the fit's default operator is the Kronecker product the
    # caller could build by hand, so the two fits are the same arithmetic.
    kernel, X, y, sigma2, _ = _grid_problem(4, (3, 4, 5))
    operator = grid_spec(kernel, structured.grid_axes(X)).operator()
    found = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=8)
    given = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=8, operator=operator)
    assert isinstance(found.structure, GridSpec) and found.steps == 8
    for name in ("S", "Z", "mean_weights"):
        assert np.array_equal(getattr(found, name), getattr(given, name))


def test_fit_on_a_grid_allocates_no_quadratic_array():
    # N = 4096 with no operator passed: the dense K_M alone would be
    # 128 MiB; the bound is a quarter of it.
    kernel = se_kernel([1.0, 1.0, 1.0], 1.0)
    data = structured.grid_dataset(16, 3, kernel, seed=0)
    n = data.n_train
    tracemalloc.start()
    try:
        models = kmcg_models_for_steps(kernel, data.X, data.y, 0.01, steps=(5, 10, 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(models[20].structure, GridSpec) and models[20].cg_steps == 20
    assert peak < n * n * 8 / 4


def test_budgeted_fit_on_a_kronecker_operator_holds_its_trace_rows_once():
    # A 16^3 grid with P = 40 < M: the trace's 2 P + 1 rows of Z and
    # residuals, S then built over the residual rows, the solver's few
    # N-vectors and the fit's copies of X_M (3 N) and y_M. Keeping the
    # residuals beside S would take 3 P + 1 rows and fail this.
    kernel = se_kernel([1.0, 1.0, 1.0], 1.0)
    spec = grid_spec(kernel, [np.linspace(0, 2, 16)] * 3)
    X = spec.points()
    n, P = X.shape[0], 40
    y = np.random.default_rng(0).standard_normal(n)
    tracemalloc.start()
    try:
        model = kmcg_fit(kernel, X, y, 0.01, eps=0.0, max_steps=P, operator=spec.operator())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (model.cg_steps, model.reason) == (P, solvers.MAXSTEPS) and isinstance(model.structure, GridSpec)
    assert peak <= (2 * (P + 1) + 14) * n * 8


def test_fitted_model_holds_only_the_rows_its_trace_used():
    # An SE fit on 600 points that breaks down at step 96 (any step from
    # 65 to 127 leaves its buffers with spare rows, room for 128): the
    # model keeps S and Z at P rows each, its two q x q factors and a few
    # N-vectors (X_M, the mean weights). Spare buffer rows kept alive
    # behind a view would fail this.
    kernel, X, y, _, _ = _problem(0, 600, lam=1.0, theta=1.0)
    tracemalloc.start()
    try:
        model = kmcg_fit(kernel, X, y, 0.01, eps=0.0)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n, P, q = 600, model.cg_steps, model.steps
    assert model.reason == solvers.BREAKDOWN and 64 < P < 128
    assert current <= (2 * (P + 1) + 6) * n * 8 + 2 * q * q * 8


def test_dense_fit_at_m_equal_n_holds_one_triangle_of_the_gram():
    # M = N = 1000 scattered points and 10 steps: the dense operator holds
    # K_M's packed lower triangle, M(M+1)/2 floats, assembled beside one
    # block; then the trace's rows come on top. The whole Gram alone would
    # be M^2 floats.
    kernel, X, y, sigma2, _ = _problem(41, 1000)
    tracemalloc.start()
    try:
        model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(model.structure, structured.DenseGram) and model.cg_steps == 10
    assert peak < 0.6 * 1000**2 * 8


# --- degeneracy oracle --------------------------------------------------------


def test_full_run_matches_exact_gp():
    kernel, X, y, sigma2, rng = _problem(5, 50)
    oracle = exact.fit(kernel, X, y, sigma2)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=50)
    X_star = rng.uniform(0, 2, (15, 2))
    want_mean = exact.predict_mean(oracle, X_star)
    got_mean = kmcg_mean(model, X_star)
    assert np.linalg.norm(got_mean - want_mean) <= 1e-6 * np.linalg.norm(want_mean)
    want_cov = exact.predict_cov(oracle, X_star)
    got_cov = kmcg_var(model, X_star)
    assert np.linalg.norm(got_cov - want_cov) <= 1e-6 * np.linalg.norm(want_cov)
    assert kmcg_evidence(model) == pytest.approx(exact.log_evidence(oracle), rel=1e-6)


# --- learned kernel ------------------------------------------------------------


def test_full_direction_set_reduces_to_sor():
    kernel, X, y, sigma2, rng = _problem(6, 50)
    for m in (5, 20):
        model = kmcg_fit(kernel, X, y, sigma2, M=m, seed=7, eps=0.0, max_steps=m)
        assert model.steps == m
        K_uu = gram(kernel, model.X_M)
        Zp = rng.uniform(0, 2, (15, 2))
        sor = gram(kernel, Zp, model.X_M) @ gauss_solve(K_uu, gram(kernel, model.X_M, Zp))
        got = kmcg_kernel_gram(model, Zp, Zp)
        assert np.max(np.abs(got - sor)) <= 1e-8 * np.max(np.abs(sor))


def test_learned_kernel_gram_bit_symmetric():
    kernel, X, y, sigma2, rng = _problem(8, 20)
    model = kmcg_fit(kernel, X, y, sigma2, max_steps=6, eps=0.0)
    for _ in range(5):
        x, z = rng.uniform(0, 2, (2, 1, 2))
        assert np.array_equal(kmcg_kernel_gram(model, x, z), kmcg_kernel_gram(model, z, x).T)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.booleans())
def test_learned_kernel_and_its_uncertainty_match_the_dense_closed_form(seed, max_steps, on_grid):
    # The functions read factor1 off the CG trace; the closed form solves
    # with S^T K_M S afresh, from dense Grams. On the grid the model builds
    # k(A, X_M) from per-axis rows; off it, X_M is a scattered subset with
    # M < N.
    rng = np.random.default_rng(seed)
    kernel = se_kernel([2.0, 1.0], 1.5)
    if on_grid:
        X = grid_spec(kernel, [np.linspace(0, 2, g) + 0.05 * rng.standard_normal(g) for g in (4, 5)]).points()
        M = None
    else:
        X = rng.uniform(0, 2, (30, 2))
        M = 12
    model = kmcg_fit(kernel, X, rng.standard_normal(X.shape[0]), 0.1, M=M, seed=seed, eps=0.0,
                     max_steps=max_steps)
    assert isinstance(model.structure, GridSpec) == on_grid
    A = np.vstack([rng.uniform(0, 2, (8, 2)), X[:3]])
    S, U = model.S, model.S.T @ gram(kernel, model.X_M, A)
    khat = U.T @ np.linalg.solve(S.T @ gram(kernel, model.X_M) @ S, U)
    K = gram(kernel, A)
    pairs = lambda G: np.outer(np.diag(G), np.diag(G)) + G * G.T
    for got, want in [(kmcg_kernel_gram(model, A), khat),
                      (kmcg_uncertainty_gram(model, A), 0.5 * (pairs(K) - pairs(khat)))]:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_kernel_gram_psd():
    kernel, X, y, sigma2, rng = _problem(9, 30)
    model = kmcg_fit(kernel, X, y, sigma2, max_steps=8, eps=0.0)
    Zp = rng.uniform(0, 2, (20, 2))
    G = kmcg_kernel_gram(model, Zp)
    assert np.array_equal(G, G.T)
    assert np.min(np.linalg.eigvalsh(G)) >= -1e-10 * kernel.theta_f


# --- mean ----------------------------------------------------------------------


def test_single_step_weighted_kernel_sum():
    # After one step the direction is y itself and the mean prediction is an
    # alpha-weighted kernel sum over the training points.
    kernel, X, y, sigma2, rng = _problem(10, 30)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=1)
    assert model.steps == 1
    K = gram(kernel, X)
    alpha = (y @ K @ y) / (sigma2 * (y @ K @ y) + y @ K @ (K @ y))
    X_star = rng.uniform(0, 2, (9, 2))
    want = alpha * (gram(kernel, X_star, X) @ y)
    assert np.allclose(kmcg_mean(model, X_star), want, atol=1e-10, rtol=1e-10)


def test_mean_zero_for_zero_targets_subset():
    kernel, X, _, sigma2, _ = _problem(11, 20)
    model = kmcg_fit(kernel, X, np.zeros(20), sigma2, M=8, seed=1)
    assert np.array_equal(kmcg_mean(model, X[:4]), np.zeros(4))


# --- variance -------------------------------------------------------------------


def test_var_far_field_prior_survives():
    kernel, X, y, sigma2, _ = _problem(12, 25)
    model = kmcg_fit(kernel, X, y, sigma2, max_steps=6, eps=0.0)
    far = np.full((1, 2), 1e3)
    assert kmcg_var(model, far)[0, 0] == pytest.approx(kernel.theta_f)


def test_var_diagonal_nonnegative():
    kernel, X, y, sigma2, rng = _problem(13, 30)
    model = kmcg_fit(kernel, X, y, sigma2, max_steps=10, eps=0.0)
    X_star = rng.uniform(0, 2, (25, 2))
    assert np.min(np.diag(kmcg_var(model, X_star))) >= -1e-10


# --- evidence --------------------------------------------------------------------


def test_evidence_matches_dense_density_of_learned_kernel():
    kernel, X, y, sigma2, _ = _problem(14, 15)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=4)
    assert model.steps == 4
    K_hat = kmcg_kernel_gram(model, X)
    assert kmcg_evidence(model) == pytest.approx(mvn_logpdf(y, K_hat + sigma2 * np.eye(15)), rel=1e-9)


def test_evidence_zero_targets_constant_terms():
    kernel, X, _, sigma2, _ = _problem(15, 12)
    model = kmcg_fit(kernel, X, np.zeros(12), sigma2)
    expected = -0.5 * 12 * np.log(sigma2) - 0.5 * 12 * np.log(2 * np.pi)
    assert kmcg_evidence(model) == pytest.approx(expected)


def test_evidence_terms_sum_to_evidence():
    kernel, X, y, sigma2, _ = _problem(16, 20)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=5)
    quad, det = kmcg_evidence_terms(model)
    assert quad + det - 0.5 * 20 * np.log(2 * np.pi) == pytest.approx(kmcg_evidence(model))


def test_every_budgets_evidence_is_read_off_the_fit_without_a_solve():
    # The fit holds every budget's evidence as running sums: no budget
    # solves with its factor for it, where one solve per budget was made.
    kernel, X, y, sigma2, _ = _problem(16, 30)
    models = kmcg_models_for_steps(kernel, X, y, sigma2, steps=range(1, 11), eps=0.0)
    calls = []
    solve = linalg.chol_solve

    def counting(*args, **kwargs):
        calls.append(args[0].dim)
        return solve(*args, **kwargs)

    with mock.patch.object(linalg, "chol_solve", counting):
        evidences = [kmcg_evidence(model) for model in models.values()]
    assert calls == [] and np.all(np.isfinite(evidences))
    assert [model.steps for model in models.values()] == list(range(1, 11))


# --- kernel uncertainty ------------------------------------------------------------


def test_uncertainty_prior_value_before_observations():
    kernel, X, _, sigma2, rng = _problem(17, 10)
    model = kmcg_fit(kernel, X, np.zeros(10), sigma2)
    x, z = rng.uniform(0, 2, (2, 2))
    k_xz = float(gram(kernel, x.reshape(1, -1), z.reshape(1, -1))[0, 0])
    assert kmcg_uncertainty_gram(model, [x, z])[0, 1] == pytest.approx(0.5 * (kernel.theta_f**2 + k_xz**2))


def test_uncertainty_vanishes_when_fully_identified():
    kernel, X, y, sigma2, _ = _problem(18, 20, lam=8.0)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=20)
    assert model.steps == 20
    worst = np.max(kmcg_uncertainty_gram(model, X[::3]))
    assert worst <= 1e-8 * kernel.theta_f**2


def test_uncertainty_nonnegative():
    kernel, X, y, sigma2, rng = _problem(19, 25)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=7)
    points = rng.uniform(0, 2, (40, 2))
    assert np.min(kmcg_uncertainty_gram(model, points)) >= -1e-10 * kernel.theta_f**2


# --- error bound --------------------------------------------------------------------


def test_error_ratio_zero_when_identified():
    kernel, X, y, sigma2, _ = _problem(20, 15, lam=8.0)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=15)
    assert np.max(error_bound_ratio(model, X[:2], gram(kernel, X[:2]))) <= 1e-6


def test_error_ratio_rates_unresolvable_variance_against_the_floor(monkeypatch):
    # A variance below 1e-8 * theta_f^4 is rounding noise (it can be 0 or
    # negative near full identification); the ratio uses that floor
    # instead and stays finite.
    kernel, X, y, sigma2, _ = _problem(20, 15, lam=8.0)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=15)
    K_true = kmcg_kernel_gram(model, X[:2]) + 1e-12
    floor = 1e-8 * kernel.theta_f**4
    for var in (0.0, -1e-15, 0.5 * floor):
        monkeypatch.setattr(kmcg, "kmcg_uncertainty_gram", lambda *args, var=var: np.full((2, 2), var))
        assert error_bound_ratio(model, X[:2], K_true) == pytest.approx(np.full((2, 2), 1e-24 / floor), rel=1e-3)
    monkeypatch.setattr(kmcg, "kmcg_uncertainty_gram", lambda *args: np.full((2, 2), 4.0 * floor))
    assert error_bound_ratio(model, X[:2], K_true) == pytest.approx(np.full((2, 2), 1e-24 / (4.0 * floor)), rel=1e-3)


def test_error_ratio_bounded_by_two_random_problems():
    worst = 0.0
    for seed in range(3):
        kernel, X, y, sigma2, _ = _problem(21 + seed, 20)
        K = gram(kernel, X)
        models = kmcg_models_for_steps(kernel, X, y, sigma2, steps=range(1, 11), eps=0.0)
        for model in models.values():
            worst = max(worst, np.max(error_bound_ratio(model, X[::4], K[::4, ::4])))
    assert worst <= 2.0 + 1e-8


def test_error_ratio_bounded_on_toy_progression():
    data = gen_toy(seed=3)
    kernel = toy_kernel()
    K = gram(kernel, data.X)
    models = kmcg_models_for_steps(kernel, data.X, data.y, TOY_DEFAULT_SIGMA2, steps=(2, 4, 8), eps=0.0)
    for model in models.values():
        assert np.max(error_bound_ratio(model, data.X, K)) <= 2.0 + 1e-8


# --- posterior samples ----------------------------------------------------------------


def test_sample_symmetry_bit_exact():
    kernel, X, y, sigma2, rng = _problem(24, 20)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=5)
    X_s = rng.uniform(0, 2, (6, 2))
    draw = kmcg_sample(model, X_s, rng)
    assert np.array_equal(draw, draw.T)


def test_sample_collapses_at_degeneracy():
    kernel, X, y, sigma2, rng = _problem(25, 15, lam=24.0)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=15)
    assert model.steps == 15
    X_s = X[:5]
    draw = kmcg_sample(model, X_s, rng)
    assert np.max(np.abs(draw - kmcg_kernel_gram(model, X_s))) <= 1e-6


def test_sample_empirical_variance_matches_uncertainty():
    kernel, X, y, sigma2, _ = _problem(26, 12)
    model = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=3)
    X_s = X[:3]
    rng = np.random.default_rng(99)
    n_draws = 5000
    draws = kmcg_sample(model, X_s, rng, size=n_draws)
    emp_var = np.var(draws, axis=0)
    var = kmcg_uncertainty_gram(model, X_s)
    for i in range(3):
        for j in range(3):
            want = var[i, j]
            se = want * np.sqrt(2.0 / n_draws)
            assert abs(emp_var[i, j] - want) <= 5.0 * se + 1e-12


# --- invariances -----------------------------------------------------------------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(8, 30), st.integers(1, 6), st.booleans())
def test_span_invariance_under_direction_transform(seed, n, max_steps, subset):
    # S -> S T (and Z -> Z T) for a well-conditioned invertible T: the
    # trace is transformed where the fit receives it, so the whole fit path
    # (cross products, both factorizations, the mean weights) sees S T.
    kernel, X, y, sigma2, rng = _problem(seed, n)
    M = n // 2 if subset else None

    def transformed_trace(*args, **kwargs):
        trace = solvers.cg_reorth(*args, **kwargs)
        p = trace.steps
        Q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
        Q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
        T = Q1 @ np.diag(rng.uniform(0.5, 2.0, p)) @ Q2  # condition number <= 4
        return dataclasses.replace(trace, S=trace.S @ T, Z=trace.Z @ T)

    fit = dict(M=M, seed=seed, eps=0.0, max_steps=max_steps)
    model = kmcg_fit(kernel, X, y, sigma2, **fit)
    with mock.patch.object(kmcg, "cg_reorth", transformed_trace):
        transformed = kmcg_fit(kernel, X, y, sigma2, **fit)
    assert transformed.steps == model.steps
    X_star = rng.uniform(0, 2, (10, 2))
    assert np.allclose(kmcg_mean(transformed, X_star), kmcg_mean(model, X_star), rtol=1e-8, atol=1e-10)
    assert np.allclose(kmcg_var(transformed, X_star), kmcg_var(model, X_star), rtol=1e-8, atol=1e-10)
    assert kmcg_evidence(transformed) == pytest.approx(kmcg_evidence(model), rel=1e-8)
    assert np.allclose(kmcg_kernel_gram(transformed, X_star), kmcg_kernel_gram(model, X_star),
                       rtol=1e-8, atol=1e-10)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(8, 30), st.integers(0, 30), st.booleans())
@example(seed=0, n=12, max_steps=0, subset=False)
@example(seed=1, n=12, max_steps=0, subset=True)
def test_pointwise_variance_is_the_covariance_diagonal(seed, n, max_steps, subset):
    kernel, X, y, sigma2, rng = _problem(seed, n)
    M = n // 2 if subset else None
    model = kmcg_fit(kernel, X, y, sigma2, M=M, seed=seed, eps=0.0, max_steps=max_steps)
    X_star = np.vstack([rng.uniform(0, 2, (12, 2)), X[:3], np.full((1, 2), 1e3)])
    ((_, got),) = kmcg_predictions([model], X_star)
    assert got.shape == (16,)
    assert got[-1] == pytest.approx(kernel.theta_f)
    want = np.diag(kmcg_var(model, X_star))
    if model.steps == 0:
        assert np.array_equal(got, want)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * kernel.theta_f)


def test_models_for_steps_match_individual_fits():
    kernel, X, y, sigma2, rng = _problem(30, 25)
    models = kmcg_models_for_steps(kernel, X, y, sigma2, steps=(1, 3, 5), eps=0.0)
    X_star = rng.uniform(0, 2, (5, 2))
    for p in (1, 3, 5):
        single = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=p)
        assert models[p].steps == single.steps
        assert np.allclose(kmcg_mean(models[p], X_star), kmcg_mean(single, X_star), rtol=1e-12)


def test_models_for_steps_report_each_budget_stop_like_individual_fits():
    # Budgets 1 and 2 stop at their budget; only the longest one sees CG
    # converge (after 5 steps on this problem).
    data = gen_toy(seed=1)
    kernel = toy_kernel()
    models = kmcg_models_for_steps(kernel, data.X, data.y, TOY_DEFAULT_SIGMA2, steps=(1, 2, 40))
    for p, model in models.items():
        single = kmcg_fit(kernel, data.X, data.y, TOY_DEFAULT_SIGMA2, max_steps=p)
        assert (model.steps, model.cg_steps, model.reason) == (single.steps, single.cg_steps, single.reason)
    assert [models[p].reason for p in (1, 2)] == ["maxsteps", "maxsteps"]


def test_breakdown_reported_only_past_the_last_direction():
    # On an indefinite operator CG breaks down at step 2; a budget of one
    # step never tries step 2, so it stops for its budget.
    kernel, X, y, sigma2, _ = _problem(31, 4)
    A = np.diag([1.0, 2.0, -3.0, 4.0])
    operator = solvers.MvmOperator(dim=4, apply=lambda v: A @ v)
    models = kmcg_models_for_steps(kernel, X, np.ones(4), sigma2, steps=(1, 3), eps=0.0, operator=operator)
    for p, model in models.items():
        single = kmcg_fit(kernel, X, np.ones(4), sigma2, eps=0.0, max_steps=p, operator=operator)
        assert (model.steps, model.cg_steps, model.reason) == (single.steps, single.cg_steps, single.reason)
    assert (models[1].reason, models[3].reason) == ("maxsteps", "breakdown")


def test_models_for_steps_validate_inputs(monkeypatch):
    kernel, X, y, sigma2, _ = _problem(32, 12)
    with pytest.raises(ValueError, match="targets"):
        kmcg_models_for_steps(kernel, X, y[:-1], sigma2, steps=(1, 2))
    operator = solvers.dense_operator(gram(kernel, X))
    with pytest.raises(ValueError, match="operator dim"):
        kmcg_models_for_steps(kernel, X, y, sigma2, steps=(1, 2), M=6, operator=operator)
    with pytest.raises(ValueError, match="at least 0, got -1"):
        kmcg_models_for_steps(kernel, X, y, sigma2, steps=(-1, 3))
    with pytest.raises(ValueError, match="at least 0, got -2"):
        kmcg_fit(kernel, X, y, sigma2, max_steps=-2)

    def no_gram(*args, **kwargs):
        raise AssertionError("an empty budget or model list must be rejected before any Gram work")

    monkeypatch.setattr(kmcg, "gram_structure", no_gram)
    monkeypatch.setattr(kmcg, "gram", no_gram)
    with pytest.raises(ValueError, match="no step budgets given"):
        kmcg_models_for_steps(kernel, X, y, sigma2, steps=[])
    with pytest.raises(ValueError, match="no models given"):
        kmcg_predictions([], X)


def test_one_pair_of_factorizations_serves_every_budget():
    kernel, X, y, sigma2, _ = _problem(33, 30)
    calls = []
    factorize = linalg.cholesky_with_truncation

    def counting(A):
        calls.append(A.shape[0])
        return factorize(A)

    with mock.patch.object(linalg, "cholesky_with_truncation", counting):
        models = kmcg_models_for_steps(kernel, X, y, sigma2, steps=(2, 5, 9), eps=0.0)
    assert calls == [9, 9]
    for p, model in models.items():
        single = kmcg_fit(kernel, X, y, sigma2, eps=0.0, max_steps=p)
        assert np.max(np.abs(model.factor1.L - single.factor1.L)) <= 1e-13 * np.max(np.abs(single.factor1.L))
        assert np.max(np.abs(model.factor2.L - single.factor2.L)) <= 1e-13 * np.max(np.abs(single.factor2.L))


def _zero_third_direction(*args, **kwargs):
    trace = solvers.cg_reorth(*args, **kwargs)
    S, Z = trace.S.copy(), trace.Z.copy()
    S[:, 2] = Z[:, 2] = 0.0
    return dataclasses.replace(trace, S=S, Z=Z)


def test_failed_pivot_truncates_every_longer_budget():
    # A zero third direction (and product) makes the third pivot of both
    # factorizations exactly zero: budgets from 3 on keep two directions.
    kernel, X, y, sigma2, _ = _problem(34, 20)
    with mock.patch.object(kmcg, "cg_reorth", _zero_third_direction):
        models = kmcg_models_for_steps(kernel, X, y, sigma2, steps=(2, 3, 6), eps=0.0)
    assert [models[p].steps for p in (2, 3, 6)] == [2, 2, 2]
    assert [models[p].cg_steps for p in (2, 3, 6)] == [2, 3, 6]
    assert np.array_equal(models[6].factor1.L, models[2].factor1.L)


# --- every budget from one pass ------------------------------------------------


def _relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("M, truncated", [(None, False), (12, False), (None, True)])
def test_predictions_match_each_models_own_predictions(M, truncated):
    # Budget 0 predicts the prior; with a zero third direction budgets 3 and
    # 6 keep two directions, so the longest model has 2 and its factors
    # serve budgets of 1 and 2 directions.
    kernel, X, y, sigma2, rng = _problem(35, 30)
    with mock.patch.object(kmcg, "cg_reorth", _zero_third_direction if truncated else solvers.cg_reorth):
        models = kmcg_models_for_steps(kernel, X, y, sigma2, steps=(6, 0, 1, 3, 2), M=M, seed=2, eps=0.0)
    assert [m.steps for m in models.values()] == ([2, 0, 1, 2, 2] if truncated else [6, 0, 1, 3, 2])
    X_star = np.vstack([rng.uniform(0, 2, (40, 2)), X[:3], np.full((1, 2), 1e3)])
    got = kmcg_predictions(list(models.values()), X_star)
    for model, (mean, var) in zip(models.values(), got):
        if model.steps == 0:
            assert np.array_equal(mean, np.zeros(44))
            assert np.array_equal(var, np.full(44, kernel.theta_f))
        else:
            assert _relative(mean, kmcg_mean(model, X_star)) <= 1e-13
        ((_, own_var),) = kmcg_predictions([model], X_star)
        assert _relative(var, own_var) <= 1e-13


def test_predictions_reject_models_of_different_fits():
    kernel, X, y, sigma2, _ = _problem(36, 20)
    a = kmcg_models_for_steps(kernel, X, y, sigma2, steps=(2, 4), M=10, seed=1, eps=0.0)
    b = kmcg_models_for_steps(kernel, X, y, sigma2, steps=(2, 4), M=10, seed=2, eps=0.0)
    with pytest.raises(ValueError, match="different fits"):
        kmcg_predictions([a[4], b[2]], X[:3])
    with pytest.raises(ValueError, match="leading columns"):
        kmcg_predictions([a[4], dataclasses.replace(a[2], S=2.0 * a[2].S)], X[:3])
    # Every mean comes from the longest model's targets and noise, which S
    # does not see off X_M, nor sigma2 at all.
    y_off = y.copy()
    y_off[np.setdiff1d(np.arange(20), choose_inducing(20, 10, 1))[0]] += 1.0
    for other in (kmcg_fit(kernel, X, -y + 1.0, sigma2, M=10, seed=1, eps=0.0, max_steps=2),
                  kmcg_fit(kernel, X, y_off, sigma2, M=10, seed=1, eps=0.0, max_steps=2),
                  kmcg_fit(kernel, X, y, 2.0 * sigma2, M=10, seed=1, eps=0.0, max_steps=2)):
        with pytest.raises(ValueError, match="different fits"):
            kmcg_predictions([a[4], other], X[:3])


@pytest.mark.parametrize("seed, M, lam, grid_shape", [
    pytest.param(42, None, 0.5, None, id="42-None-0.5"),
    pytest.param(41, 12, 2.0, None, id="41-12-2.0"),
    pytest.param(43, None, (0.7, 1.9), (5, 6), id="grid-5x6"),
])
def test_predictions_match_a_40_digit_reference(seed, M, lam, grid_shape):
    # Every prefix of the longest model's S (q = 0..8) against mpref at 40
    # digits, N = 30; cond(S^T K_M S) is 1.7e3 at M = N and 5.6e2 at M = 12.
    # Worst relative errors seen: mean 1.3e-14, variance 8.0e-14, evidence
    # 1.5e-15 (M = N); mean 2.0e-14, variance 2.4e-14, evidence 5.7e-15
    # (M = 12). On the 5 x 6 grid, where k(X*, X_M) W is the per-axis path,
    # cond(S^T K_M S) is 69 and the worst errors mean 2.3e-15, variance
    # 6.0e-14, evidence 6.0e-16. The learned kernel and the pairwise kernel
    # variance on X_star: khat 2.1e-15, 2.7e-15, 1.6e-15 (max-scaled) and
    # variance 5.5e-12 (smallest 7.3e-4), 4.6e-14, 1.6e-13 (entrywise).
    # Seen on numpy 2.4.6, scipy 1.17.1 and OpenBLAS; the figures move with
    # the BLAS build.
    rng = np.random.default_rng(seed)
    kernel = se_kernel(np.broadcast_to(lam, 2), 1.5)
    if grid_shape is None:
        X = rng.uniform(0, 2, (30, 2))
    else:
        X = grid_spec(kernel, [np.linspace(0, 2, g) + 0.05 * rng.standard_normal(g) for g in grid_shape]).points()
    y = rng.standard_normal(30)
    X_star = np.vstack([rng.uniform(0, 2, (4, 2)), X[:1]])
    models = list(kmcg_models_for_steps(kernel, X, y, 0.1, steps=range(9), M=M, seed=seed, eps=0.0).values())
    longest = models[-1]
    assert longest.steps == 8
    assert isinstance(longest.structure, GridSpec) == (grid_shape is not None)
    reference = kmcg_reference(kernel, X, y, 0.1, longest.X_M, longest.S, X_star)
    for model, (mean, var) in zip(models, kmcg_predictions(models, X_star)):
        want_mean, want_var, want_evidence, want_khat, want_kvar = reference[model.steps]
        assert np.max(np.abs(mean - want_mean)) <= 1e-12 * max(np.max(np.abs(want_mean)), 1e-300)
        assert np.max(np.abs(var - want_var) / want_var) <= 1e-12
        assert kmcg_evidence(model) == pytest.approx(want_evidence, rel=1e-12)
        khat = kmcg_kernel_gram(model, X_star)
        assert np.max(np.abs(khat - want_khat)) <= 1e-13 * max(np.max(np.abs(want_khat)), 1e-300)
        assert np.max(np.abs(kmcg_uncertainty_gram(model, X_star) - want_kvar) / want_kvar) <= 1e-10
