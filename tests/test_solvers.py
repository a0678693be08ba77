import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcg import exact, linalg, solvers, structured
from kernelcg.datasets import TOY_DEFAULT_SIGMA2, gen_toy, toy_kernel
from kernelcg.kernels import gram, se_kernel
from kernelcg.kmcg import kmcg_fit, kmcg_models_for_steps
from kernelcg.lowrank import choose_inducing
from kernelcg.solvers import MvmOperator, cg_reorth, cg_textbook, dense_operator, fom_solution
from brute import cg_list_loop, gauss_solve, random_spd
from mpref import galerkin_reference


def spectral_matrix(rng, n, eigenvalues):
    """SPD matrix with prescribed eigenvalues via a random orthogonal basis."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.asarray([eigenvalues[i % len(eigenvalues)] for i in range(n)], dtype=float)
    return (Q * lam) @ Q.T


def orthogonality_defect(residuals):
    """max_{i != j} |r_i . r_j| / (|r_i| |r_j|) over nonzero residuals."""
    norms = np.linalg.norm(residuals, axis=0)
    keep = norms > 0
    R = residuals[:, keep] / norms[keep]
    G = np.abs(R.T @ R)
    np.fill_diagonal(G, 0.0)
    return float(np.max(G))


def test_one_dimensional_exact_step():
    trace = cg_textbook(dense_operator(np.array([[2.0]])), [4.0], eps=1e-12)
    assert trace.steps == 1
    assert trace.reason == solvers.CONVERGED
    assert np.allclose(fom_solution(trace.S, trace.Z, [4.0]), [2.0])


def test_two_by_two_known_solution():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    trace = cg_textbook(dense_operator(A), [1.0, 2.0], eps=1e-12, max_steps=2)
    assert np.allclose(fom_solution(trace.S, trace.Z, [1.0, 2.0]), [1.0 / 11.0, 7.0 / 11.0], rtol=1e-10)
    assert trace.steps <= 2


def test_zero_rhs_returns_start_point():
    trace = cg_textbook(dense_operator(np.eye(4)), np.zeros(4), eps=1e-12)
    assert trace.steps == 0
    assert trace.reason == solvers.CONVERGED
    assert np.array_equal(fom_solution(trace.S, trace.Z, np.zeros(4)), np.zeros(4))


def test_trace_products_reused_bit_exactly():
    rng = np.random.default_rng(0)
    A = random_spd(rng, 12)
    op = dense_operator(A)
    trace = cg_reorth(op, rng.standard_normal(12), eps=1e-10)
    for i in range(trace.steps):
        assert np.array_equal(trace.Z[:, i], op.apply(trace.S[:, i]))


def test_operator_probe_invariants():
    rng = np.random.default_rng(1)
    A = random_spd(rng, 10)
    op = dense_operator(A)
    u, v = rng.standard_normal((2, 10))
    assert np.allclose(op.apply(u + v), op.apply(u) + op.apply(v), rtol=1e-10)
    assert u @ op.apply(v) == pytest.approx(v @ op.apply(u), rel=1e-10)


def test_reorth_agrees_with_textbook_well_conditioned():
    rng = np.random.default_rng(2)
    A = random_spd(rng, 10, cond=50.0)
    b = rng.standard_normal(10)
    t1 = cg_textbook(dense_operator(A), b, eps=1e-12, max_steps=10)
    t2 = cg_reorth(dense_operator(A), b, eps=1e-12, max_steps=10)
    assert np.allclose(fom_solution(t1.S, t1.Z, b), fom_solution(t2.S, t2.Z, b), rtol=1e-8, atol=1e-10)


def test_reorth_residuals_pairwise_orthogonal():
    rng = np.random.default_rng(3)
    A = random_spd(rng, 25, cond=1e5)
    trace = cg_reorth(dense_operator(A), rng.standard_normal(25), eps=1e-12, max_steps=25)
    assert orthogonality_defect(trace.residuals[:, :-1]) <= 1e-10


def test_spectral_termination_three_eigenvalues():
    # A Krylov solver resolves one distinct eigenvalue per step.
    rng = np.random.default_rng(4)
    A = spectral_matrix(rng, 30, [1.0, 5.0, 10.0])
    b = rng.standard_normal(30)
    trace = cg_reorth(dense_operator(A), b, eps=1e-10 * np.linalg.norm(b), max_steps=30)
    assert trace.reason == solvers.CONVERGED
    assert trace.steps <= 3
    assert trace.residual_norms[-1] <= 1e-10 * np.linalg.norm(b)


def test_reorth_conjugacy_of_directions():
    rng = np.random.default_rng(5)
    A = random_spd(rng, 30, cond=1e6)
    trace = cg_reorth(dense_operator(A), rng.standard_normal(30), eps=0.0, max_steps=30)
    S, Z = trace.S, trace.Z
    scale = np.sqrt(np.sum(S * Z, axis=0))
    C = np.abs(S.T @ Z) / np.outer(scale, scale)
    np.fill_diagonal(C, 0.0)
    assert np.max(C) <= 1e-8


def test_error_norm_contraction():
    rng = np.random.default_rng(6)
    A = random_spd(rng, 30, cond=1e4)
    b = rng.standard_normal(30)
    x_true = gauss_solve(A, b)
    op = dense_operator(A)
    errors = []
    for p in range(1, 31):
        trace = cg_reorth(op, b, eps=0.0, max_steps=p)
        diff = fom_solution(trace.S, trace.Z, b) - x_true
        errors.append(float(diff @ (A @ diff)))
        if trace.steps < p:
            break
    assert np.all(np.diff(errors) <= 1e-12 * errors[0])


def test_textbook_instability_witness():
    # Clustered inputs make the kernel matrix extremely ill conditioned;
    # textbook CG loses residual orthogonality there while the
    # reorthogonalized variant keeps it at working precision.
    rng = np.random.default_rng(7)
    n = 200
    centers = rng.uniform(0, 1, (n // 2, 1))
    X = np.vstack([centers, centers + 1e-4 * rng.standard_normal((n // 2, 1))])
    kernel = se_kernel([1.0], 1.0)
    K = gram(kernel, X)
    eigs = np.linalg.eigvalsh(K)
    shift = abs(min(eigs[0], 0.0)) + 1e-13 * kernel.theta_f
    A = K + shift * np.eye(n)
    condition = (eigs[-1] + shift) / shift
    assert condition >= 1e12
    b = rng.standard_normal(n)
    loose = cg_textbook(dense_operator(A), b, eps=0.0, max_steps=n)
    tight = cg_reorth(dense_operator(A), b, eps=0.0, max_steps=n)
    assert orthogonality_defect(loose.residuals) > 1e-2
    assert orthogonality_defect(tight.residuals[:, :-1]) <= 1e-14


def _hadamard_basis():
    """Five scaled rows of the 8 x 8 Sylvester-Hadamard matrix and the other three.

    Every entry is exact in floating point, so the rows are exactly
    orthogonal and the last three span the exact orthogonal complement.
    """
    H = np.array([[1.0]])
    for _ in range(3):
        H = np.block([[H, H], [H, -H]])
    return H[:5] * np.array([1.0, 2.0, 0.5, 3.0, 0.25])[:, None], H[5:]


@pytest.mark.parametrize("in_span, passes", [(1e-3, 1), (0.999, 2)])
def test_orthogonalize_repasses_only_after_cancellation(in_span, passes):
    # A vector with in_span of its unit norm in the span of the basis. At
    # 1e-3 one pass keeps almost all of it and is the whole projection; at
    # 0.999 the pass keeps 4.5% of the norm, its rounding leaves a component
    # of 2.6e-15 relative in the span, and the second pass removes it.
    B, complement = _hadamard_basis()
    sq = np.sum(B * B, axis=1)
    rng = np.random.default_rng(0)
    inside, outside = rng.standard_normal(5) @ B, rng.standard_normal(3) @ complement
    r = (in_span * inside / np.linalg.norm(inside)
         + np.sqrt(1.0 - in_span**2) * outside / np.linalg.norm(outside))
    once = r - ((B @ r) / sq) @ B
    twice = once - ((B @ once) / sq) @ B
    assert not np.array_equal(once, twice)  # a second pass would show

    got = r.copy()
    solvers._orthogonalize(got, B, sq)
    assert np.array_equal(got, once if passes == 1 else twice)
    assert np.max(np.abs(B @ got) / np.sqrt(sq)) <= 1e-15 * np.linalg.norm(got)


def test_fom_full_rank_matches_elimination():
    rng = np.random.default_rng(8)
    A = random_spd(rng, 10, cond=100.0)
    b = rng.standard_normal(10)
    trace = cg_reorth(dense_operator(A), b, eps=0.0, max_steps=10)
    assert trace.steps == 10
    x = fom_solution(trace.S, trace.Z, b)
    expected = gauss_solve(A, b)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_fom_rank_one_galerkin():
    rng = np.random.default_rng(9)
    A = random_spd(rng, 6)
    b = rng.standard_normal(6)
    S = b.reshape(-1, 1)
    Z = (A @ b).reshape(-1, 1)
    x = fom_solution(S, Z, b)
    assert np.allclose(x, b * (b @ b) / (b @ A @ b))


def test_fom_empty_directions():
    assert np.array_equal(fom_solution(np.zeros((4, 0)), np.zeros((4, 0)), np.zeros(4)), np.zeros(4))


def test_cg_predict_mean_matches_exact():
    rng = np.random.default_rng(11)
    kernel = se_kernel([2.0, 2.0], 1.5)
    X = rng.uniform(0, 2, (50, 2))
    y = rng.standard_normal(50)
    sigma2 = 0.1
    X_star = rng.uniform(0, 2, (12, 2))
    model = exact.fit(kernel, X, y, sigma2)
    want = exact.predict_mean(model, X_star)
    got = solvers.cg_predict_mean(kernel, X, y, sigma2, X_star, eps=1e-13, max_steps=50)
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)


def test_cg_predict_mean_zero_targets():
    kernel = se_kernel([1.0], 1.0)
    X = np.linspace(0, 1, 8).reshape(-1, 1)
    got = solvers.cg_predict_mean(kernel, X, np.zeros(8), 0.1, X)
    assert np.array_equal(got, np.zeros(8))


def _prefix_means(K_star, trace, y, used):
    """k(X*, X) S_q (L_q L_q^T)^{-1} S_q^T y for every q in `used`, L the factor
    of S^T Z at the trace's full length (with its jitter rung), and L."""
    G = trace.S.T @ trace.Z
    factor = linalg.cholesky(0.5 * (G + G.T))
    means = [K_star @ trace.S[:, :q] @ linalg.chol_solve(linalg.CholeskyFactor(factor.L[:q, :q]),
                                                         trace.S[:, :q].T @ y) for q in used]
    return means, factor


def _shifted(op, sigma2):
    """v -> K v + sigma2 v around K's operator: the system the CG baselines solve."""
    return MvmOperator(op.dim, lambda v: op.apply(v) + sigma2 * v)


def _relative(got, want) -> float:
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


@pytest.mark.parametrize("eps", [None, 0.0])
@pytest.mark.parametrize("reorth", [True, False])
def test_cg_predict_means_equal_one_run_per_budget(reorth, eps):
    # Every budget of the shared trace takes the directions and the stop
    # reason of a run capped at that budget, bit for bit. Its mean is read
    # off the factor of S^T Z at the trace's full length, so it is the
    # Galerkin mean with that factor's leading block (1.5e-15 relative at
    # worst seen), and where the factor takes no jitter rung it is the
    # capped run's mean to rounding (2.6e-16). cg-textbook at eps = 0 runs
    # 40 steps and its factor takes rung 1 (1e-12 of the mean diagonal),
    # which every budget carries: the short budgets move by up to 2.7e-7
    # from their capped runs, which factor their own S^T Z. The default eps
    # converges after 3 steps, and cg_reorth at eps = 0 after 9 (its
    # residual collapses), so the larger budgets stop early. The reference
    # runs are on the system the library solves, the structure's operator
    # (K's packed triangle) plus sigma2 v; on the full-storage K, whose
    # products round differently, cg-textbook's 40 steps drift apart.
    data = gen_toy(seed=0)
    kernel, sigma2 = toy_kernel(), TOY_DEFAULT_SIGMA2
    system = _shifted(structured.gram_structure(kernel, data.X).operator(), sigma2)
    run = cg_reorth if reorth else cg_textbook
    budgets = (7, 0, 1, 2, 3, 9, 10, 40)
    got = solvers.cg_predict_means(kernel, data.X, data.y, sigma2, data.X_star, budgets, eps=eps, reorth=reorth)
    assert len(got) == len(budgets)
    trace = run(system, data.y, eps=eps, max_steps=max(budgets))
    wants, factor = _prefix_means(gram(kernel, data.X_star, data.X), trace, data.y, [steps for _, steps, _ in got])
    for p, (mean, steps, reason), want in zip(budgets, got, wants):
        capped = run(system, data.y, eps=eps, max_steps=p)
        assert (steps, reason) == (capped.steps, capped.reason)
        assert np.array_equal(capped.S, trace.S[:, :steps])
        assert _relative(mean, want) <= 1e-12
        if factor.jitter == 0.0:
            alone = solvers.cg_predict_mean(kernel, data.X, data.y, sigma2, data.X_star, eps=eps, max_steps=p,
                                            reorth=reorth)
            assert _relative(mean, alone) <= 1e-12


def test_cg_predict_means_make_one_factorization_and_one_pass(monkeypatch):
    # The eight budgets of the toy case above read one factor of S^T Z and
    # one product k(X*, X) S, whatever their number.
    data = gen_toy(seed=0)
    calls = {"cholesky": 0, "cross_products": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "cholesky", counted("cholesky", linalg.cholesky))
    monkeypatch.setattr(structured.GramStructure, "cross_products",
                        counted("cross_products", structured.GramStructure.cross_products))
    got = solvers.cg_predict_means(toy_kernel(), data.X, data.y, TOY_DEFAULT_SIGMA2, data.X_star,
                                   (7, 0, 1, 2, 3, 9, 10, 40), eps=0.0)
    assert [steps for _, steps, _ in got] == [7, 0, 1, 2, 3, 9, 9, 9]
    assert calls == {"cholesky": 1, "cross_products": 1}


@pytest.mark.parametrize("G, D", [(8, 2), (6, 3)])
@pytest.mark.parametrize("reorth", [True, False])
def test_cg_predict_means_on_a_grid_match_the_dense_path(reorth, G, D):
    # The grid is read off X: the Kronecker operator and the per-axis
    # cross-products replace the dense K and k(X*, X), and the means agree
    # with the dense path to rounding, 7e-15 relative at worst seen. Textbook
    # CG loses orthogonality within a few dozen steps, after which the two
    # operators' rounding differences grow (1e-7 at 25 steps), so it is
    # compared at budgets up to 10 only. On the Kronecker operator's own
    # trace each budget takes the directions and stop reason of a run capped
    # there, bit for bit, and its mean is the Galerkin mean with the leading
    # block of the full-length factor of S^T Z (2.3e-15 relative at worst
    # seen) and, where that factor takes no jitter rung, the capped run's
    # (1.8e-15).
    kernel, sigma2 = se_kernel(np.full(D, 1.0), 1.3), 0.01
    data = structured.grid_dataset(G, D, kernel, seed=1, n_test=20)
    budgets = (0, 1, 3, 10, 25, G**D) if reorth else (0, 1, 3, 10)
    got = solvers.cg_predict_means(kernel, data.X, data.y, sigma2, data.X_star, budgets, eps=0.0, reorth=reorth)
    run = cg_reorth if reorth else cg_textbook
    trace = run(_shifted(dense_operator(gram(kernel, data.X)), sigma2), data.y, eps=0.0, max_steps=max(budgets))
    kron = _shifted(structured.gram_structure(kernel, data.X).operator(), sigma2)
    kron_trace = run(kron, data.y, eps=0.0, max_steps=max(budgets))
    K_star = gram(kernel, data.X_star, data.X)
    wants, factor = _prefix_means(K_star, kron_trace, data.y, [steps for _, steps, _ in got])
    for p, (mean, steps, reason), want in zip(budgets, got, wants):
        assert (steps, reason) == (min(p, trace.steps), solvers.stop_reason_within(trace, p))
        dense = K_star @ fom_solution(trace.S[:, :steps], trace.Z[:, :steps], data.y)
        assert np.linalg.norm(mean - dense) <= 1e-10 * np.linalg.norm(dense)
        capped = run(kron, data.y, eps=0.0, max_steps=p)
        assert (steps, reason) == (capped.steps, capped.reason)
        assert np.array_equal(capped.S, kron_trace.S[:, :steps])
        assert _relative(mean, want) <= 1e-12
        if factor.jitter == 0.0:
            alone = solvers.cg_predict_mean(kernel, data.X, data.y, sigma2, data.X_star, eps=0.0, max_steps=p,
                                            reorth=reorth)
            assert _relative(mean, alone) <= 1e-12


@pytest.mark.parametrize("seed, lam, grid_shape", [
    pytest.param(42, 0.5, None, id="42-0.5"),
    pytest.param(41, 2.0, None, id="41-2.0"),
    pytest.param(43, (0.7, 1.9), (5, 6), id="grid-5x6"),
])
@pytest.mark.parametrize("reorth", [True, False])
def test_cg_predict_means_match_a_40_digit_reference(reorth, seed, lam, grid_shape):
    # The data of test_kmcg's 40-digit test, N = 30: every budget q <= 8 at
    # eps = 0 against mpref's Galerkin mean on the library's own directions
    # (the trace on K + 0.1 I around the operator its structure gives, the
    # Kronecker one on the 5 x 6 grid). Worst relative error seen: 1.9e-14.
    rng = np.random.default_rng(seed)
    kernel = se_kernel(np.broadcast_to(lam, 2), 1.5)
    if grid_shape is None:
        X = rng.uniform(0, 2, (30, 2))
    else:
        X = structured.grid_spec(kernel, [np.linspace(0, 2, g) + 0.05 * rng.standard_normal(g)
                                          for g in grid_shape]).points()
    y = rng.standard_normal(30)
    X_star = np.vstack([rng.uniform(0, 2, (4, 2)), X[:1]])
    structure = structured.gram_structure(kernel, X)
    assert isinstance(structure, structured.GridSpec) == (grid_shape is not None)
    trace = (cg_reorth if reorth else cg_textbook)(_shifted(structure.operator(), 0.1), y, eps=0.0, max_steps=8)
    reference = galerkin_reference(kernel, X, y, 0.1, trace.S, X_star)
    got = solvers.cg_predict_means(kernel, X, y, 0.1, X_star, range(9), eps=0.0, reorth=reorth)
    assert [steps for _, steps, _ in got] == list(range(9))
    for (mean, _, _), want in zip(got, reference):
        assert np.max(np.abs(mean - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)


def test_cg_predict_means_on_dense_data_free_the_gram_before_the_cross_products():
    # N = n* = 1000 scattered points: the dense operator holds the N x N
    # Gram and k(X*, X) is read in one block of n* x N. The Gram is freed as
    # CG returns, so the two never coexist: 1.02 N^2 floats at the peak
    # seen, 2.02 N^2 when the Gram outlived the trace.
    rng = np.random.default_rng(23)
    n = 1000
    X, X_star = rng.uniform(0, 4, (2, n, 2))
    y = rng.standard_normal(n)
    tracemalloc.start()
    try:
        got = solvers.cg_predict_means(se_kernel([1.0, 1.0], 1.0), X, y, 0.1, X_star, range(1, 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [steps for _, steps, _ in got] == [1, 2, 3, 4, 5]
    assert peak < 1.25 * n * n * 8


def test_cg_predict_means_on_a_grid_allocate_no_quadratic_array():
    # N = 4096: K + sigma2 I alone would be 128 MiB, k(X*, X) 3.1 MiB per
    # 100 test points; the bound is a quarter of the N x N array.
    kernel = se_kernel([1.0, 1.0, 1.0], 1.0)
    data = structured.grid_dataset(16, 3, kernel, seed=0)
    n = data.n_train
    tracemalloc.start()
    try:
        got = solvers.cg_predict_means(kernel, data.X, data.y, 0.01, data.X_star, (5, 10, 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [steps for _, steps, _ in got] == [5, 10, 20]
    assert peak < n * n * 8 / 4


def test_cg_predict_means_on_a_grid_hold_the_trace_rows_once():
    # A 16^3 grid at budget P = 40, past two buffer growths (16, 32, 40
    # rows): the trace's 2 P + 1 rows of Z and residuals, then S over the
    # residual rows, and a few N-vectors. Keeping the residuals beside S
    # would take 3 P + 1 rows and fail this.
    kernel = se_kernel([1.0, 1.0, 1.0], 1.0)
    data = structured.grid_dataset(16, 3, kernel, seed=0)
    n, P = data.n_train, 40
    for reorth in (True, False):
        tracemalloc.start()
        try:
            ((_, used, reason),) = solvers.cg_predict_means(kernel, data.X, data.y, 0.01, data.X_star, [P],
                                                            eps=0.0, reorth=reorth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (used, reason) == (P, solvers.MAXSTEPS)
        assert peak <= (2 * (P + 1) + 14) * n * 8


def test_negative_step_limits_raise(monkeypatch):
    # A NaN in b or a NaN eps once stopped CG at once as converged (NaN
    # compares false with the tolerance); an infinite or negative eps is no
    # tolerance either. Each is rejected before any operator product.
    def no_product(v):
        raise AssertionError("a bad input must be rejected before any operator product")

    op = MvmOperator(3, no_product)
    for run in (cg_reorth, cg_textbook):
        for b, eps, max_steps, message in [
            (np.ones(3), None, -1, "max_steps must be at least 0, got -1"),
            ([1.0, np.nan, 1.0], None, None, "b must be finite"),
            ([1.0, np.inf, 1.0], 0.0, None, "b must be finite"),
            (np.ones(3), np.nan, None, "eps must be finite and at least 0, got nan"),
            (np.ones(3), np.inf, None, "eps must be finite and at least 0, got inf"),
            (np.ones(3), -1e-3, None, "eps must be finite and at least 0, got -0.001"),
        ]:
            with pytest.raises(ValueError, match=message):
                run(op, b, eps=eps, max_steps=max_steps)
    kernel = se_kernel([1.0], 1.0)
    X = np.linspace(0, 1, 8).reshape(-1, 1)
    y = np.ones(8)
    y[3] = np.nan
    for targets, eps in [(y, None), (np.ones(8), np.nan), (np.ones(8), np.inf), (np.ones(8), -1.0)]:
        with pytest.raises(ValueError, match="must be finite"):
            kmcg_fit(kernel, X, targets, 0.1, eps=eps)
        with pytest.raises(ValueError, match="must be finite"):
            solvers.cg_predict_means(kernel, X, targets, 0.1, X, [3], eps=eps)
    with pytest.raises(ValueError, match="step budgets must be at least 0, got -1"):
        solvers.cg_predict_mean(kernel, X, np.ones(8), 0.1, X, max_steps=-1)

    def no_gram(*args, **kwargs):
        raise AssertionError("an empty or negative budget must be rejected before any Gram work")

    monkeypatch.setattr(structured, "gram", no_gram)
    monkeypatch.setattr(structured, "gram_lower", no_gram)
    with pytest.raises(ValueError, match="got -2"):
        solvers.cg_predict_means(kernel, X, np.ones(8), 0.1, X, [3, -2, 1])
    with pytest.raises(ValueError, match="no step budgets given"):
        solvers.cg_predict_means(kernel, X, np.ones(8), 0.1, X, [])


def test_bad_targets_and_eps_are_rejected_before_any_gram_work(monkeypatch):
    # Every one of the N targets is checked, and eps, before the operator is
    # assembled: no Gram entry is computed for a call that fails. At M < N a
    # NaN outside the inducing subset, which CG never sees, once surfaced
    # from inside the projection without naming y.
    kernel = se_kernel([1.0, 1.0], 1.0)
    X = np.random.default_rng(24).uniform(0, 2, (20, 2))
    outside = np.setdiff1d(np.arange(20), choose_inducing(20, 5, 0))[0]
    y = np.ones(20)
    y[outside] = np.nan
    assemblies = []
    for name in ("gram", "gram_lower"):
        monkeypatch.setattr(structured, name, lambda *args, _name=name, **kwargs: assemblies.append(_name))
    calls = [
        (lambda: kmcg_fit(kernel, X, y, 0.1, M=5, seed=0), "y must be finite"),
        (lambda: kmcg_models_for_steps(kernel, X, y, 0.1, [2, 4], M=5, seed=0), "y must be finite"),
        (lambda: kmcg_fit(kernel, X, y, 0.1), "y must be finite"),
        (lambda: kmcg_fit(kernel, X, np.ones(20), 0.1, eps=np.nan), "eps must be finite"),
        (lambda: solvers.cg_predict_means(kernel, X, y, 0.1, X, [3]), "y must be finite"),
        (lambda: solvers.cg_predict_means(kernel, X, np.ones(20), 0.1, X, [3], eps=-1.0), "eps must be finite"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert assemblies == []


@pytest.mark.parametrize("run", [cg_textbook, cg_reorth])
def test_a_run_makes_one_operator_product_per_step(run):
    # x starts at zero, so the first residual is -b without a product; a
    # breakdown applies the operator once more, to the direction it drops.
    rng = np.random.default_rng(8)
    spd, rhs = random_spd(rng, 20, 10.0), rng.standard_normal(20)
    reasons = set()
    for A, b, eps, max_steps in ((spd, rhs, 0.0, 7), (spd, rhs, 1e-3 * np.linalg.norm(rhs), 20),
                                 (np.diag([1.0, -1.0]), np.ones(2), 0.0, 5)):
        calls = []
        op = solvers.MvmOperator(A.shape[0], lambda v, A=A: calls.append(v) or A @ v)
        trace = run(op, b, eps=eps, max_steps=max_steps)
        assert len(calls) == trace.steps + (trace.reason == solvers.BREAKDOWN)
        reasons.add(trace.reason)
    assert reasons == {solvers.MAXSTEPS, solvers.CONVERGED, solvers.BREAKDOWN}


def test_breakdown_truncates_trace():
    # An indefinite operator produces a nonpositive curvature direction.
    A = np.diag([1.0, -1.0])
    b = np.array([1.0, 1.0])
    trace = cg_textbook(dense_operator(A), b, eps=1e-12, max_steps=5)
    assert trace.reason == solvers.BREAKDOWN
    assert trace.steps == 0


# --- trace storage against the list-based reference loops ---------------------


def _witness_operator(seed=7, n=200):
    """Clustered-input SE Gram shifted to condition >= 1e12 (see the witness test)."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 1, (n // 2, 1))
    X = np.vstack([centers, centers + 1e-4 * rng.standard_normal((n // 2, 1))])
    K = gram(se_kernel([1.0], 1.0), X)
    K[np.diag_indices_from(K)] += abs(min(np.linalg.eigvalsh(K)[0], 0.0)) + 1e-13
    return K, rng.standard_normal(n)


def _reference_cases():
    """(A, b, eps, max_steps) covering every stop reason and buffer growth."""
    cases = []
    for seed, n, cond in ((0, 12, 1e2), (1, 40, 1e4), (2, 90, 1e6), (3, 150, 1e3)):
        rng = np.random.default_rng(seed)
        A = random_spd(rng, n, cond)
        b = rng.standard_normal(n)
        cases.append((A, b, 0.0, n))  # runs out of steps or collapses
        cases.append((A, b, 1e-6 * np.linalg.norm(b), n))  # converges
        cases.append((A, b, 0.0, n // 3))  # budget
    cases.append((np.diag([1.0, 2.0, -3.0, 4.0]), np.ones(4), 0.0, 4))  # breakdown
    cases.append((np.eye(5), np.zeros(5), 0.0, 5))  # zero right-hand side
    K, b = _witness_operator()
    cases.append((K, b, 0.0, K.shape[0]))  # 200 steps, four buffer growths
    cases.append((K, b, 0.0, 150))  # a limit below N: four growths, the last capped at it
    return cases


def _bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("case", range(len(_reference_cases())))
def test_textbook_trace_bit_identical_to_list_loop(case):
    # Without its residuals (the private `_keep_residuals=False` of the
    # library's own callers) a trace builds S over the residual rows; its
    # S and Z are the full trace's bit for bit, signed zeros included, for
    # both loops.
    A, b, eps, max_steps = _reference_cases()[case]
    op = dense_operator(A)
    trace = cg_textbook(op, b, eps=eps, max_steps=max_steps)
    _, S, Z, residuals, norms, steps, reason = cg_list_loop(op.apply, b, eps, max_steps, False)
    assert (trace.steps, trace.reason) == (steps, reason)
    for got, want in ((trace.S, S), (trace.Z, Z), (trace.residuals, residuals), (trace.residual_norms, norms)):
        assert got.shape == want.shape and np.array_equal(got, want)
    for run, public in ((cg_textbook, trace), (cg_reorth, cg_reorth(op, b, eps=eps, max_steps=max_steps))):
        own = run(op, b, eps=eps, max_steps=max_steps, _keep_residuals=False)
        assert own.residuals is None and (own.steps, own.reason) == (public.steps, public.reason)
        for got, want in ((own.S, public.S), (own.Z, public.Z), (own.residual_norms, public.residual_norms)):
            assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))


# cg_reorth's classical Gram-Schmidt (one pass, a second only on
# cancellation) and the MGS2 reference differ in rounding only; on problems
# of condition <= 1e4 stopped well above rounding scale the difference stays
# below this relative tolerance (about 1e4 * cond * machine epsilon; the
# largest seen over the 300 problems of seeds 100-399 was 1.4e-11, against
# 6.3e-12 with two passes at every step).
MGS2_RTOL = 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_reorth_trace_matches_mgs2_list_loop(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(5, 120))
    A = random_spd(rng, n, 10 ** rng.uniform(0, 4))
    b = rng.standard_normal(n)
    eps = 1e-6 * np.linalg.norm(b)
    op = dense_operator(A)
    trace = cg_reorth(op, b, eps=eps, max_steps=n)
    _, S, Z, residuals, norms, steps, reason = cg_list_loop(op.apply, b, eps, n, True)
    assert (trace.steps, trace.reason) == (steps, reason)

    def column_error(got, want):
        return np.max(np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0))

    assert column_error(trace.S, S) <= MGS2_RTOL
    assert column_error(trace.Z, Z) <= MGS2_RTOL
    scale = np.linalg.norm(b)
    assert np.max(np.linalg.norm(trace.residuals - residuals, axis=0)) <= MGS2_RTOL * scale
    assert np.max(np.abs(trace.residual_norms - norms)) <= MGS2_RTOL * scale


def test_reorth_collapse_stops_like_mgs2_list_loop():
    # Three distinct eigenvalues: the fourth residual is rounding noise.
    rng = np.random.default_rng(4)
    A = spectral_matrix(rng, 30, [1.0, 5.0, 10.0])
    b = rng.standard_normal(30)
    op = dense_operator(A)
    trace = cg_reorth(op, b, eps=0.0, max_steps=30)
    _, S, _, _, _, steps, reason = cg_list_loop(op.apply, b, 0.0, 30, True)
    assert (trace.steps, trace.reason) == (steps, reason) == (3, solvers.CONVERGED)
    assert np.allclose(trace.S, S, rtol=MGS2_RTOL, atol=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.floats(0.0, 8.0))
def test_reorth_orthogonality_and_conjugacy_property(seed, n, log_cond):
    # Over 300 such problems the residual defect stayed below 2e-16 and the
    # conjugacy defect below 7e-10.
    rng = np.random.default_rng(seed)
    A = random_spd(rng, n, 10.0**log_cond)
    trace = cg_reorth(dense_operator(A), rng.standard_normal(n), eps=0.0, max_steps=n)
    if trace.steps >= 2:
        assert orthogonality_defect(trace.residuals[:, :-1]) <= 1e-12
        S, Z = trace.S, trace.Z
        scale = np.sqrt(np.sum(S * Z, axis=0))
        C = np.abs(S.T @ Z) / np.outer(scale, scale)
        np.fill_diagonal(C, 0.0)
        assert np.max(C) <= 1e-8


def _traced_peak(run, diagonal, rel_eps, max_steps=None):
    """A run on the diagonal operator, eps = rel_eps ||b||, and the peak
    bytes it allocated."""
    n = diagonal.size
    op = solvers.MvmOperator(dim=n, apply=lambda v: diagonal * v)
    b = np.random.default_rng(0).standard_normal(n)
    tracemalloc.start()
    try:
        trace = run(op, b, eps=rel_eps * np.linalg.norm(b), max_steps=max_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trace, peak


@pytest.mark.parametrize("spectrum", ["three-eigenvalues", "condition-10", "condition-10-limit-n-1"])
@pytest.mark.parametrize("run", [cg_reorth, cg_textbook])
def test_trace_memory_grows_with_steps_taken_not_max_steps(run, spectrum):
    # max_steps=None means op.dim = 4096 steps; the last case sets a limit
    # of N - 1, from which sized rows would be three N x N arrays. These
    # traces converge in 3 and 29 steps (the second past two buffer
    # growths), so memory must follow the steps taken, far below one N x N
    # array.
    n = 4096
    if spectrum == "three-eigenvalues":
        diagonal = np.resize([1.0, 5.0, 10.0], n)
    else:
        diagonal = np.linspace(1.0, 10.0, n)
    max_steps = n - 1 if spectrum.endswith("limit-n-1") else None
    trace, peak = _traced_peak(run, diagonal, 1e-8, max_steps)
    assert trace.reason == solvers.CONVERGED and 3 <= trace.steps <= 40
    # The docstring's ceiling, the larger of 2 N max(2 P, 17) and
    # N (3 P + 1) floats, plus ten N-vectors.
    P = trace.steps
    assert peak <= (max(2 * max(2 * P, 17), 3 * P + 1) + 10) * n * 8
    assert peak <= n * n * 8 / 10


@pytest.mark.parametrize("run", [cg_reorth, cg_textbook])
def test_trace_that_reaches_its_limit_holds_its_rows_once(run):
    # S is built after the loop, once Z and the residuals are cut to the
    # rows used, so a run of P = max_steps steps peaks at its final
    # 3 P + 1 rows.
    n, P = 4096, 60
    trace, peak = _traced_peak(run, np.linspace(1.0, 1000.0, n), 0.0, max_steps=P)
    assert (trace.steps, trace.reason) == (P, solvers.MAXSTEPS)
    assert peak <= (3 * (P + 1) + 10) * n * 8


# --- stop reason within a budget ------------------------------------------------


def test_stop_reason_within_matches_runs_capped_at_each_budget():
    data = gen_toy(seed=1)
    K = gram(toy_kernel(), data.X)
    K[np.diag_indices_from(K)] += TOY_DEFAULT_SIGMA2
    op = dense_operator(K)
    for run in (cg_reorth, cg_textbook):
        trace = run(op, data.y, max_steps=40)
        assert trace.reason == solvers.CONVERGED and trace.steps < 40
        for budget in range(1, trace.steps + 3):
            capped = run(op, data.y, max_steps=budget)
            assert solvers.stop_reason_within(trace, budget) == capped.reason
        reasons = [solvers.stop_reason_within(trace, p) for p in (1, 2, 40)]
        assert reasons == [solvers.MAXSTEPS, solvers.MAXSTEPS, solvers.CONVERGED]


def test_stop_reason_within_breakdown_only_past_the_last_direction():
    op = dense_operator(np.diag([1.0, 2.0, -3.0, 4.0]))
    trace = cg_textbook(op, np.ones(4), eps=0.0, max_steps=4)
    assert (trace.steps, trace.reason) == (1, solvers.BREAKDOWN)
    for budget in (1, 2, 4):
        capped = cg_textbook(op, np.ones(4), eps=0.0, max_steps=budget)
        assert solvers.stop_reason_within(trace, budget) == capped.reason
    assert solvers.stop_reason_within(trace, 1) == solvers.MAXSTEPS
