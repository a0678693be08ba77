import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from kernelcg import exact, harness, kmcg, linalg, lowrank, solvers, structured
from kernelcg.datasets import TOY_DEFAULT_SIGMA2, gen_toy, toy_kernel
from kernelcg.harness import (
    ExperimentConfig,
    budget_for,
    emit_csv,
    metric_ev_err,
    metric_relerr,
    metric_smse,
    read_records_csv,
    run_experiment,
)
from kernelcg.kernels import se_kernel
from brute import gauss_solve


def _small_config(**overrides):
    defaults = dict(
        kernel=se_kernel([2.0, 2.0], 1.5),
        sigma2=0.1,
        methods=("exact", "kmcg", "cg-reorth", "sor", "fitc"),
        steps=(1, 2, 4),
        repetitions=2,
        master_seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _small_dataset(seed=0, n=40):
    rng = np.random.default_rng(seed)
    from kernelcg.datasets import Dataset

    X = rng.uniform(0, 2, (n, 2))
    X_star = rng.uniform(0, 2, (15, 2))
    y = rng.standard_normal(n)
    y_star = rng.standard_normal(15)
    return Dataset(X=X, y=y, X_star=X_star, y_star=y_star)


# --- metrics -----------------------------------------------------------------


def test_relerr_basic_shapes():
    assert metric_relerr([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metric_relerr([1.0, 2.0], [1.1, 1.8]) == pytest.approx(0.1)
    assert metric_relerr([3.0, -2.0], [6.0, -4.0]) == pytest.approx(1.0)


def test_relerr_guard_excludes_tiny_denominators():
    exact_values = np.array([1.0, 1e-30, 2.0])
    approx = np.array([1.0, 5.0, 2.0])
    assert metric_relerr(exact_values, approx) == 0.0
    # The mean runs over the two kept entries only.
    assert metric_relerr(exact_values, [1.1, 5.0, 2.0]) == pytest.approx(0.05)


def test_relerr_is_nan_without_warning_on_an_all_zero_exact_vector():
    # All-zero targets give an exactly zero exact mean: no entry is a scale.
    assert np.isnan(metric_relerr(np.zeros(4), [0.5, 0.0, -1.0, 2.0]))
    assert np.isnan(metric_relerr(np.zeros(4), np.zeros(4)))
    assert metric_relerr([0.0, 2.0], [7.0, 1.0]) == 0.5


def test_var_and_ev_metrics():
    # eps_var is the relative error of the pointwise variances
    assert metric_relerr([1.0, 4.0], [1.1, 3.6]) == pytest.approx((0.1 + 0.1) / 2)
    assert metric_ev_err(-10.0, -12.0) == pytest.approx(0.2)
    assert metric_ev_err(-10.0, -10.0) == 0.0


def test_ev_err_is_nan_for_a_zero_exact_evidence():
    assert np.isnan(metric_ev_err(0.0, -1.5))
    assert np.isnan(metric_ev_err(0.0, 0.0))
    for exact_ev, approx_ev in ((-10.0, -12.0), (3.7, 3.7000001), (-1e-300, 2.0), (5e3, -4.2e3)):
        want = abs((float(exact_ev) - float(approx_ev)) / float(exact_ev))
        assert metric_ev_err(exact_ev, approx_ev) == want


def test_smse_conventions():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert metric_smse(y, y) == 0.0
    broadcast = np.full(4, y.mean())
    assert metric_smse(y, broadcast) == pytest.approx(4.0)  # N_* Var/Var
    rng = np.random.default_rng(0)
    assert metric_smse(y, rng.standard_normal(4)) >= 0.0


def test_smse_is_nan_without_warning_for_targets_of_no_variance():
    # A single test point has no variance to standardize by; this once
    # returned inf with a divide-by-zero warning.
    assert np.isnan(metric_smse([1.5], [0.5]))
    assert np.isnan(metric_smse([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))


def test_run_with_a_single_test_point_records_nan_smse():
    from kernelcg.datasets import Dataset

    data = _small_dataset()
    one = Dataset(X=data.X, y=data.y, X_star=data.X_star[:1], y_star=data.y_star[:1])
    records = run_experiment(_small_config(methods=harness.METHODS), one)
    assert not [r.reason for r in records if r.reason.startswith("error:")]
    assert all(np.isnan(r.smse) for r in records)


def test_budget_rule():
    config = _small_config()
    assert budget_for(config, 100, 4) == 20
    assert budget_for(config, 100, 1) == 10
    capped = _small_config(inducing_cap=15)
    assert budget_for(capped, 100, 4) == 15
    # fixed_m alone sets every budget; it was once ignored without a
    # second knob, and the budgets followed ceil(sqrt(N P)).
    fixed = _small_config(fixed_m=7)
    assert [budget_for(fixed, 100, step) for step in (1, 4, 100)] == [7, 7, 7]
    assert budget_for(_small_config(fixed_m=50, inducing_cap=30), 100, 1) == 30
    assert budget_for(_small_config(fixed_m=500), 100, 1) == 100


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(steps=())
    with pytest.raises(ValueError):
        _small_config(repetitions=0)
    with pytest.raises(ValueError):
        _small_config(methods=("exact", "mystery"))
    # Each of these once ran silently with another value (M = 1, or a
    # repeated step's records written and aggregated twice) or wrote
    # error records instead of failing the config.
    for overrides, message in [
        (dict(fixed_m=-50), "fixed_m must be at least 1, got -50"),
        (dict(fixed_m=0), "fixed_m must be at least 1, got 0"),
        (dict(inducing_cap=0), "inducing_cap must be at least 1, got 0"),
        (dict(kmcg_m=0), "kmcg_m must be at least 1, got 0"),
        (dict(steps=(2, 1, 2)), "steps must be distinct, got 2, 1, 2"),
        (dict(master_seed=-1), "master_seed must be at least 0, got -1"),
        (dict(cg_eps=math.nan), "cg_eps must be finite and at least 0, got nan"),  # once recorded converged CG
        (dict(methods=()), "methods is empty"),  # once recorded nothing
        (dict(sigma2=math.inf), "sigma2 must be positive and finite, got inf"),  # once died in the oracle fit
    ]:
        with pytest.raises(ValueError, match=message):
            _small_config(**overrides)


def _without_seconds(records):
    return [tuple(harness._fmt(getattr(r, name)) for name, _ in harness._COLUMNS if name != "seconds")
            for r in records]


def test_unsorted_schedule_gives_the_sorted_schedule_records():
    # Every method's rows once came out in config order for kmcg and CG but
    # in ascending order for the inducing baselines and pbr.
    data = _small_dataset()
    for overrides in (dict(), dict(kmcg_m=12)):
        config = _small_config(methods=harness.METHODS, steps=(3, 1, 2), **overrides)
        assert config.steps == (1, 2, 3)
        records = run_experiment(config, data)
        individual = [r for r in records if r.reason != "aggregate" and r.method != "exact"]
        for method in set(harness.METHODS) - {"exact"}:
            steps = [r.step for r in individual if r.method == method]
            assert steps == sorted(steps), method
        ascending = run_experiment(_small_config(methods=harness.METHODS, steps=(1, 2, 3), **overrides), data)
        assert _without_seconds(records) == _without_seconds(ascending)


# --- runner ------------------------------------------------------------------


def test_run_experiment_records_and_aggregates():
    config = _small_config()
    records = run_experiment(config, _small_dataset())
    methods = {r.method for r in records}
    assert methods == {"exact", "kmcg", "cg-reorth", "sor", "fitc"}
    exact_rows = [r for r in records if r.method == "exact"]
    assert len(exact_rows) == 1 and exact_rows[0].eps_f == 0.0
    sor_rows = [r for r in records if r.method == "sor"]
    runs = {r.run for r in sor_rows}
    assert runs == {"0", "1", "mean", "min", "max"}
    for r in records:
        if r.run == "0" and r.method in ("sor", "fitc"):
            assert np.isfinite(r.eps_f) and r.eps_f >= 0.0
    # progressive min is nonincreasing along the schedule
    mins = [r.eps_f for r in sorted(sor_rows, key=lambda r: r.step) if r.run == "min"]
    assert all(b <= a + 1e-15 for a, b in zip(mins, mins[1:]))


def test_kmcg_matches_sor_record_with_aligned_seeds():
    # At P = M with a shared inducing subset the two methods coincide.
    config = _small_config(
        methods=("kmcg", "sor"),
        fixed_m=4,
        kmcg_m=4,
        steps=(4,),
        repetitions=1,
    )
    records = run_experiment(config, _small_dataset(seed=5))
    by_method = {r.method: r for r in records if r.run == "0"}
    assert by_method["kmcg"].effective_p == 4
    assert by_method["kmcg"].eps_f == pytest.approx(by_method["sor"].eps_f, abs=1e-8)


SHARED_DELAY = 0.25


def _delayed(function):
    def slow(*args, **kwargs):
        time.sleep(SHARED_DELAY)
        return function(*args, **kwargs)
    return slow


@pytest.mark.parametrize("method, module, name", [
    ("kmcg", kmcg, "kmcg_models_for_steps"),
    ("cg-reorth", solvers, "cg_reorth"),
    ("cg-textbook", solvers, "cg_textbook"),
    ("kmcg", kmcg, "kmcg_predictions"),
    ("kmcg", kmcg, "kmcg_evidence"),
])
def test_shared_trace_time_charged_once_to_largest_budget(monkeypatch, method, module, name):
    monkeypatch.setattr(module, name, _delayed(getattr(module, name)))
    config = _small_config(methods=(method,), steps=(4, 1, 2), repetitions=1)
    records = {r.step: r for r in run_experiment(config, _small_dataset())}
    assert records[4].seconds >= SHARED_DELAY
    assert records[1].seconds < SHARED_DELAY and records[2].seconds < SHARED_DELAY


def test_kmcg_below_n_is_one_fit_on_repetition_zeros_prefix(monkeypatch):
    # One fit serves every step, on the first M points of the permutation
    # that repetition 0's inducing baselines read; it is one batch, whose
    # time goes to the largest step.
    fits = []
    original = kmcg.kmcg_models_for_steps

    def recording(*args, **kwargs):
        fits.append(original(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(kmcg, "kmcg_models_for_steps", recording)
    data = _small_dataset()
    config = _small_config(methods=("kmcg",), steps=(4, 2, 1), kmcg_m=10, repetitions=1)
    records = run_experiment(config, data)
    assert [list(models) for models in fits] == [[1, 2, 4]]
    order = harness._inducing_seed(config, 0).permutation(data.n_train)
    assert all(np.array_equal(model.X_M, data.X[order[:10]]) for model in fits[0].values())
    assert [(r.step, r.budget, r.seconds > 0.0) for r in records] == [(1, 10, False), (2, 10, False), (4, 10, True)]
    for r in records:
        assert r.reason in ("converged", "maxsteps", "breakdown") and r.effective_p == r.step
        assert np.all(np.isfinite([r.eps_f, r.eps_var, r.eps_ev, r.smse]))


def test_kmcg_fit_below_n_that_raises_fails_every_step(monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError("no fit")

    monkeypatch.setattr(kmcg, "kmcg_models_for_steps", failing)
    config = _small_config(methods=("kmcg",), steps=(4, 2, 1), kmcg_m=10, repetitions=1)
    records = run_experiment(config, _small_dataset())
    assert [(r.step, r.budget, r.seconds, r.reason) for r in records] == [
        (step, 10, 0.0, "error: RuntimeError: no fit") for step in (1, 2, 4)]


@pytest.mark.parametrize("method", ["cg-reorth", "cg-textbook"])
def test_cg_call_that_raises_fails_every_step_with_no_time(monkeypatch, method):
    def failing(*args, **kwargs):
        time.sleep(0.01)
        raise RuntimeError("no trace")

    monkeypatch.setattr(solvers, "cg_predict_means", failing)
    config = _small_config(methods=(method,), steps=(4, 1, 2), repetitions=1)
    records = run_experiment(config, _small_dataset())
    assert [(r.step, r.budget, r.seconds, r.reason) for r in records] == [
        (step, 40, 0.0, "error: RuntimeError: no trace") for step in (1, 2, 4)]


def test_record_seconds_are_disjoint_wall_time():
    # Each piece of work is charged to one record and no two records' work
    # overlaps, so the individual records' seconds sum to at most the wall
    # time of the run.
    config = ExperimentConfig(kernel=toy_kernel(), sigma2=TOY_DEFAULT_SIGMA2, methods=harness.METHODS,
                              steps=(1, 2, 4), repetitions=2, master_seed=3)
    data = gen_toy(seed=2)
    start = time.perf_counter()
    records = run_experiment(config, data)
    wall = time.perf_counter() - start
    individual = [r for r in records if r.reason != "aggregate"]
    assert {r.method for r in individual} == set(harness.METHODS)
    assert not [r.reason for r in individual if r.reason.startswith("error:")]
    assert sum(r.seconds for r in individual) <= wall


def test_cg_methods_have_no_variance_metrics():
    config = _small_config(methods=("cg-reorth",), steps=(2,), repetitions=1)
    records = run_experiment(config, _small_dataset())
    assert len(records) == 1
    assert np.isnan(records[0].eps_var) and np.isnan(records[0].eps_ev)
    assert np.isfinite(records[0].eps_f)


def test_method_failure_is_recorded_not_raised():
    # Matern kernels have no analytic eigenexpansion; the pbr rows must
    # carry the failure reason while other methods still run.
    from kernelcg.kernels import matern52_kernel

    config = _small_config(kernel=matern52_kernel([2.0, 2.0], 1.5), methods=("exact", "pbr", "sor"), steps=(2,))
    records = run_experiment(config, _small_dataset())
    pbr_rows = [r for r in records if r.method == "pbr"]
    assert pbr_rows and all(r.reason.startswith("error:") for r in pbr_rows)
    assert any(r.method == "sor" and np.isfinite(r.eps_f) for r in records)


def test_pbr_rows_come_last_whether_or_not_the_expansion_is_built():
    from kernelcg.kernels import matern52_kernel

    data = gen_toy(0)
    orders = []
    for family in (se_kernel, matern52_kernel):
        config = ExperimentConfig(kernel=family([4.0], 2.0), sigma2=TOY_DEFAULT_SIGMA2,
                                  methods=("kmcg", "sor", "pbr"), steps=(2, 1), repetitions=2)
        records = run_experiment(config, data)
        orders.append([(r.method, r.step) for r in records if r.run == "0"])
    assert orders[0] == orders[1]
    assert orders[0][-2:] == [("pbr", 1), ("pbr", 2)]


def test_kmcg_full_budget_record_is_exact_to_1e5():
    # At M=N, P=N the kmcg record's mean error against the oracle is
    # essentially zero on desk-scale datasets.
    for seed in (0, 1):
        data = _small_dataset(seed=seed, n=40)
        config = _small_config(methods=("kmcg",), steps=(40,), repetitions=1, cg_eps=0.0)
        (record,) = run_experiment(config, data)
        assert record.eps_f <= 1e-5


def test_fig1_ordering_kmcg_beats_cg_at_seven_steps():
    data = gen_toy(seed=2)
    config = ExperimentConfig(
        kernel=toy_kernel(),
        sigma2=TOY_DEFAULT_SIGMA2,
        methods=("kmcg", "cg-reorth"),
        steps=(7,),
        repetitions=1,
        master_seed=0,
    )
    records = {r.method: r for r in run_experiment(config, data)}
    assert records["kmcg"].eps_f < records["cg-reorth"].eps_f


def test_quadratic_term_better_approximated_than_determinant():
    # Evidence split on the toy problem at M=N: the quadratic form is the
    # better-approximated half of the evidence. At P=10 the toy model is
    # numerically converged and both terms sit at rounding noise, so the
    # P=10 comparison carries a noise floor; P=7 is the regime where the
    # two errors genuinely separate (quad ~1e-12 vs det ~1e-7).
    from kernelcg import linalg

    data = gen_toy(seed=1)
    kernel = toy_kernel()
    oracle = exact.fit(kernel, data.X, data.y, TOY_DEFAULT_SIGMA2)
    quad_exact = float(-0.5 * data.y @ oracle.alpha)
    det_exact = float(-0.5 * linalg.logdet(oracle.factor))

    def errors(p):
        model = kmcg.kmcg_fit(kernel, data.X, data.y, TOY_DEFAULT_SIGMA2, eps=0.0, max_steps=p)
        quad, det = kmcg.kmcg_evidence_terms(model)
        return abs((quad - quad_exact) / quad_exact), abs((det - det_exact) / det_exact)

    quad_err, det_err = errors(10)
    assert quad_err <= det_err + 1e-10
    quad_err, det_err = errors(7)
    assert quad_err <= det_err


def test_nested_budget_monotonicity():
    # Along a fixed nested inducing sequence the mean error is nonincreasing
    # (sor, dtc and vfe share the same mean predictor).
    kernel = se_kernel([2.0, 2.0], 1.5)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 2, (60, 2))
        y = rng.standard_normal(60)
        X_star = rng.uniform(0, 2, (30, 2))
        oracle = exact.fit(kernel, X, y, 0.1)
        want = exact.predict_mean(oracle, X_star)
        fits = lowrank.InducingFits(kernel, X, y, 0.1, X[rng.permutation(60)], X_star)
        errors = [metric_relerr(want, fits.predict("dtc", m)[0]) for m in (5, 10, 20, 40, 60)]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


# --- CSV ---------------------------------------------------------------------


def test_emit_csv_empty_stream(tmp_path):
    path = tmp_path / "records.csv"
    emit_csv([], path)
    assert path.read_text() == harness.CSV_HEADER + "\n"


def test_emit_csv_round_trip(tmp_path):
    config = _small_config(methods=("exact", "sor"), steps=(1, 2), repetitions=2)
    records = run_experiment(config, _small_dataset())
    path = tmp_path / "records.csv"
    emit_csv(records, path)
    header = path.read_text().splitlines()[0]
    assert header == harness.CSV_HEADER
    back = read_records_csv(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.method == b.method and a.step == b.step and a.run == b.run
        for field in ("eps_f", "eps_var", "eps_ev", "smse", "seconds"):
            x, y = getattr(a, field), getattr(b, field)
            assert (np.isnan(x) and np.isnan(y)) or x == y


def test_read_records_csv_rejects_a_row_of_the_wrong_length(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(harness.CSV_HEADER + "\nkmcg,1,40\n")
    with pytest.raises(ValueError, match="a row has 3 cells, expected 11"):
        read_records_csv(path)


def _strip_seconds(path):
    lines = path.read_text().splitlines()
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        del cells[8]  # seconds column
        out.append(",".join(cells))
    return "\n".join(out)


def test_determinism_identical_csv_modulo_seconds(tmp_path):
    config = _small_config()
    data = _small_dataset()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(run_experiment(config, data), first)
    emit_csv(run_experiment(config, data), second)
    assert _strip_seconds(first) == _strip_seconds(second)


@pytest.mark.parametrize("method", ["cg-reorth", "cg-textbook"])
def test_cg_records_report_the_stop_within_each_budget(method):
    # One trace serves budgets 1, 2 and 40; CG converges after a few steps,
    # so only the largest budget reports convergence.
    config = ExperimentConfig(kernel=toy_kernel(), sigma2=TOY_DEFAULT_SIGMA2, methods=(method,),
                              steps=(1, 2, 40), repetitions=1, master_seed=0)
    records = run_experiment(config, gen_toy(seed=1))
    assert [(r.step, r.reason) for r in records] == [(1, "maxsteps"), (2, "maxsteps"), (40, "converged")]
    assert [r.effective_p for r in records][:2] == [1, 2]


def test_run_experiment_forms_no_test_by_test_array():
    # Every method at n* = 3000 test points and N = 200: one n* x n* float64
    # array is 72 MB, the ceiling a quarter of that. Pointwise variances
    # take memory linear in n*.
    from kernelcg.datasets import Dataset

    rng = np.random.default_rng(12)
    n_star = 3000
    data = Dataset(X=rng.uniform(0, 2, (200, 2)), y=rng.standard_normal(200),
                   X_star=rng.uniform(0, 2, (n_star, 2)), y_star=rng.standard_normal(n_star))
    config = _small_config(methods=harness.METHODS, steps=(1, 2, 5), repetitions=1)
    tracemalloc.start()
    try:
        records = run_experiment(config, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {r.method for r in records} == set(harness.METHODS)
    assert not [r.reason for r in records if r.reason.startswith("error:")]
    assert peak < n_star * n_star * 8 / 4


def _by_subset(records):
    """{(step, run): {method: record}} over the individual baseline records."""
    out = {}
    for r in records:
        if r.run.isdigit():
            out.setdefault((r.step, r.run), {})[r.method] = r
    return out


def test_sor_dtc_and_vfe_share_one_fit_per_subset():
    # All three fit N(y; 0, Q + sigma2 I) on the same subset: one fit, so
    # the shared metrics agree to the last bit.
    config = _small_config(methods=("sor", "dtc", "vfe"), steps=(1, 2, 4), repetitions=2)
    subsets = _by_subset(run_experiment(config, _small_dataset(seed=3)))
    assert len(subsets) == 6
    for rows in subsets.values():
        sor, dtc, vfe = rows["sor"], rows["dtc"], rows["vfe"]
        assert (sor.eps_f, sor.smse, sor.eps_ev) == (dtc.eps_f, dtc.smse, dtc.eps_ev)
        assert (dtc.eps_f, dtc.eps_var, dtc.smse) == (vfe.eps_f, vfe.eps_var, vfe.smse)
        assert vfe.eps_ev != dtc.eps_ev


@pytest.mark.parametrize("fixed_m", [None, 5])
def test_inducing_baselines_factor_two_matrices_per_repetition_and_one_per_budget(monkeypatch, fixed_m):
    # K_UU and the shared sor/dtc/vfe fit once per repetition, at the
    # largest budget, and the fitc fit once per distinct budget: at a
    # fixed_m every step of a repetition shares one.
    calls = []
    original = linalg.cholesky

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    data = _small_dataset()
    config = _small_config(methods=("sor", "dtc", "fitc", "vfe"), steps=(1, 2, 4), repetitions=2, fixed_m=fixed_m)
    monkeypatch.setattr(linalg, "cholesky", counting)
    harness._fit_oracle(config, data)
    oracle_calls = len(calls)
    calls.clear()
    records = run_experiment(config, data)
    assert not [r.reason for r in records if r.reason.startswith("error:")]
    budgets = {budget_for(config, data.n_train, step) for step in config.steps}
    assert len(budgets) == (3 if fixed_m is None else 1)
    assert len(calls) - oracle_calls == config.repetitions * (2 + len(budgets))


def test_shared_inducing_fit_charged_once_per_repetition(monkeypatch):
    # sor is not listed: the first listed method in METHODS order, dtc,
    # carries the shared fit at the repetition's largest step; every other
    # record only its own work.
    monkeypatch.setattr(lowrank, "sor_expansion", _delayed(lowrank.sor_expansion))
    config = _small_config(methods=("vfe", "fitc", "dtc"), steps=(2, 1, 4), repetitions=2)
    subsets = _by_subset(run_experiment(config, _small_dataset()))
    assert len(subsets) == 6
    charged = [(step, run, m) for (step, run), rows in subsets.items() for m, r in rows.items()
               if r.seconds >= SHARED_DELAY]
    assert sorted(charged) == [(4, "0", "dtc"), (4, "1", "dtc")]


def test_inducing_records_read_nested_prefixes_of_one_permutation():
    # Repetition r's record at budget m is the fit on the first m points of
    # r's permutation, as a fit on that subset alone gives it.
    data = _small_dataset(seed=4)
    config = _small_config(methods=("sor", "dtc", "fitc", "vfe"), steps=(1, 2, 4), repetitions=2)
    oracle = harness._fit_oracle(config, data)
    for (step, run), rows in _by_subset(run_experiment(config, data)).items():
        m = budget_for(config, data.n_train, step)
        X_U = data.X[harness._inducing_seed(config, int(run)).permutation(data.n_train)[:m]]
        fits = lowrank.InducingFits(config.kernel, data.X, data.y, config.sigma2, X_U, data.X_star)
        for method, record in rows.items():
            mean, var, evidence = fits.predict(method)
            assert (record.step, record.budget, record.reason) == (step, m, "ok")
            assert record.eps_f == pytest.approx(metric_relerr(oracle.mean, mean), rel=1e-9)
            assert record.eps_var == pytest.approx(metric_relerr(oracle.var, var), rel=1e-9)
            assert record.eps_ev == pytest.approx(metric_ev_err(oracle.evidence, evidence), rel=1e-9)


def test_inducing_failures_fail_the_records_that_need_the_work(monkeypatch):
    # Each listed method is one batch per repetition on the repetition's one
    # fit. A failure in the shared basis fails every record of its
    # repetition, and since a piece that raised is not kept, it is built
    # again by each method's batch: once per listed method, not once per
    # record. A fitc factor that fails at one budget fails every fitc record
    # of its repetition; sor, dtc and vfe stay ok.
    data = _small_dataset()
    config = _small_config(methods=("sor", "dtc", "fitc", "vfe"), steps=(1, 2, 4), repetitions=2)
    original_expansion, original_cholesky, first, built = lowrank.sor_expansion, linalg.cholesky, [], []

    def first_fails(kernel, X_U):
        first[:] = first or [X_U]
        built.append(X_U is first[0])
        if X_U is first[0]:
            raise RuntimeError("no basis")
        return original_expansion(kernel, X_U)

    def middle_budget_fails(A, *args, **kwargs):
        if A.shape == (9, 9):
            raise linalg.NotPositiveDefiniteError("no fitc factor")
        return original_cholesky(A, *args, **kwargs)

    monkeypatch.setattr(lowrank, "sor_expansion", first_fails)
    monkeypatch.setattr(linalg, "cholesky", middle_budget_fails)
    assert [budget_for(config, data.n_train, step) for step in config.steps] == [7, 9, 13]
    subsets = _by_subset(run_experiment(config, data))
    assert built == [True] * len(config.methods) + [False]
    assert len(subsets) == 6
    for (step, run), rows in subsets.items():
        for method, record in rows.items():
            if run == "0":
                assert record.reason == "error: RuntimeError: no basis" and record.seconds == 0.0
            elif method == "fitc":
                assert record.reason == "error: NotPositiveDefiniteError: no fitc factor" and record.seconds == 0.0
            else:
                assert record.reason == "ok" and np.isfinite(record.eps_f)


def _pbr_expansion_with_phi(monkeypatch, wrap):
    """Make the harness's pbr expansion use wrap(phi) as its feature map."""
    original = lowrank.se_eigen_expansion

    def expansion(*args, **kwargs):
        built = original(*args, **kwargs)
        return dataclasses.replace(built, phi=wrap(built.phi))

    monkeypatch.setattr(lowrank, "se_eigen_expansion", expansion)


def test_test_point_features_computed_once_per_fit(monkeypatch):
    # kmcg at M = N assembles k(X*, X_M) once for all budgets, each
    # repetition's inducing set k(X*, X_U) once for all four baselines at
    # every budget, and pbr evaluates its
    # feature map once on X and once on X* for all budgets.
    data = _small_dataset()
    cross = {"kmcg": 0, "lowrank": 0}
    for name, module in (("kmcg", structured), ("lowrank", lowrank)):
        def counting(kernel, A, B=None, name=name, original=module.gram):
            cross[name] += int(np.shares_memory(A, data.X_star))
            return original(kernel, A, B)
        monkeypatch.setattr(module, "gram", counting)
    points = []

    def counting_phi(phi):
        def counted(X):
            points.append(X)
            return phi(X)
        return counted

    _pbr_expansion_with_phi(monkeypatch, counting_phi)
    config = _small_config(methods=("kmcg", "sor", "dtc", "fitc", "vfe", "pbr"), steps=(1, 2, 4), repetitions=2)
    records = run_experiment(config, data)
    assert not [r.reason for r in records if r.reason.startswith("error:")]
    assert cross == {"kmcg": 1, "lowrank": config.repetitions}
    assert len(points) == 2 and points[0] is data.X and points[1] is data.X_star


@pytest.mark.parametrize("metric", [4.0, 16.0])
def test_pbr_runs_at_short_lengthscales_on_the_toy_problem(metric):
    # An orthonormality check that was not exact once rejected these valid
    # expansions, so every pbr record was an error. Each rank must be the
    # exact GP under the kernel of its leading eigenpairs.
    data = gen_toy(0)
    kernel = se_kernel([metric], 2.0)
    config = ExperimentConfig(kernel=kernel, sigma2=TOY_DEFAULT_SIGMA2, methods=("exact", "pbr"),
                              steps=(1, 2, 3, 4, 5))
    records = [r for r in run_experiment(config, data) if r.method == "pbr"]
    assert [r.reason for r in records] == ["ok"] * 5
    expansion = lowrank.se_eigen_expansion(kernel, data.X.mean(axis=0), data.X.std(axis=0), records[-1].budget)
    fits = lowrank.PbrFits(expansion, data.X, data.y, TOY_DEFAULT_SIGMA2, data.X_star)
    oracle = exact.predict_mean(exact.fit(kernel, data.X, data.y, TOY_DEFAULT_SIGMA2), data.X_star)
    F, F_star = expansion.phi(data.X), expansion.phi(data.X_star)
    for record in records:
        lam = expansion.eigenvalues[: record.budget]
        F_m, F_star_m = F[:, : record.budget], F_star[:, : record.budget]
        K = (F_m * lam) @ F_m.T + TOY_DEFAULT_SIGMA2 * np.eye(data.n_train)
        want = (F_star_m * lam) @ F_m.T @ gauss_solve(K, data.y).reshape(-1)
        assert np.allclose(fits.predict(record.budget), want, rtol=1e-9, atol=1e-12 * np.max(np.abs(want)))
        assert record.eps_f == pytest.approx(metric_relerr(oracle, want), rel=1e-8)


def test_pbr_feature_pass_charged_once_to_largest_budget(monkeypatch):
    _pbr_expansion_with_phi(monkeypatch, _delayed)
    config = _small_config(methods=("pbr",), steps=(4, 1, 2), repetitions=1)
    records = run_experiment(config, _small_dataset())
    assert [r.step for r in records] == [1, 2, 4]
    assert [r.step for r in records if r.seconds >= SHARED_DELAY] == [4]


def test_pbr_expansion_build_charged_to_largest_budget(monkeypatch):
    monkeypatch.setattr(lowrank, "se_eigen_expansion", _delayed(lowrank.se_eigen_expansion))
    config = _small_config(methods=("pbr",), steps=(4, 1, 2), repetitions=1)
    records = run_experiment(config, _small_dataset())
    assert [r.step for r in records] == [1, 2, 4]
    assert [r.step for r in records if r.seconds >= SHARED_DELAY] == [4]
