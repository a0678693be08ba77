"""Benchmark harness: budget-matched method comparison with CSV records.

For every step budget P in the schedule the harness evaluates the CG-based
estimators at P steps and every inducing-point baseline at the matched
budget M = ceil(sqrt(N P)), or fixed_m if set, against the exact GP oracle,
in ascending step order. Baselines are repeated over several draws;
aggregate rows carry the mean per step plus the progressive minimum and
maximum across repetitions and budgets.

Randomness is derived from the master seed by a counter scheme,
SeedSequence([master, stream, repetition]). Each repetition draws one
permutation of the training points from the inducing-selection stream, and
the baselines at budget M take its first M points, so every record's
subset is a uniform draw of M points and one repetition's subsets are
nested (the prefixes lowrank.choose_inducing gives for M < N). kmcg at
kmcg_m < N takes repetition 0's prefix, so kmcg_m = fixed_m puts kmcg and
the baselines' repetition 0 on one subset. Records are therefore
deterministic given the master seed. Every method runs in the calling
thread, one after another, so no record's time overlaps another's.

The `seconds` of a record is the wall time of the work done for it, and
work shared by several records is charged once, by one rule: every method
but exact records through timed batches (_batch). A batch is one piece of
work that gives several steps' records: a kmcg fit with its predictions
and evidences, one solvers.cg_predict_means call, pbr's eigenexpansion
with every rank's mean, or one inducing baseline's records of one
repetition. Its time goes to the record of its largest step, the others
carry 0 s, and if it raises every step it holds fails. kmcg is one batch,
at M = N on all the points and at M < N on one subset. sor, dtc, fitc and
vfe share one fit per repetition, at the largest budget, from which every
step reads its budget's prefix (lowrank.InducingFits); the batches run in
METHODS order, so a piece of work they share is charged to the first batch
that needs it. A shared piece that raises is not kept: each later batch of
the repetition that needs it tries it once more, and fails too. The
`reason` of a kmcg, cg-reorth or cg-textbook record says why CG stopped
within its budget (converged, maxsteps or breakdown). Baselines say "ok",
aggregate rows "aggregate", and a failed method "error: " and the
exception.

Records use pointwise predictive variances only: `eps_var` compares
exact.predict_var with kmcg.kmcg_predictions and the pointwise variances of
lowrank (plain for sor, dtc for dtc, fitc and vfe, from the phi(X*) each
repetition shares). No method forms k(X*, X*) or any other n* x n* array, so
memory grows with n* times the largest of N, M and P, not with n*^2.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Optional, get_type_hints

import numpy as np

from . import exact, kmcg, lowrank, solvers
from .datasets import Dataset
from .kernels import Kernel, _check_sigma2

METHODS = ("exact", "cg-textbook", "cg-reorth", "kmcg", "sor", "dtc", "fitc", "vfe", "pbr")

# Test points whose exact mean is below this fraction of the largest one are
# excluded from relative errors (the denominator would be meaningless).
RELERR_GUARD = 1e-12

_STREAM_INDUCING = 7


# ---------------------------------------------------------------------------
# Metrics.


def metric_relerr(exact_values, approx_values) -> float:
    """Average relative error (1/n) sum |exact - approx| / |exact|.

    Entries with |exact| zero or below RELERR_GUARD times the largest
    magnitude are excluded, and n counts the rest; nan when every entry is
    excluded (an all-zero exact vector among them).
    """
    exact_values = np.asarray(exact_values, dtype=float).reshape(-1)
    approx_values = np.asarray(approx_values, dtype=float).reshape(-1)
    if exact_values.shape != approx_values.shape:
        raise ValueError("exact and approximate vectors differ in length")
    keep = (exact_values != 0.0) & (np.abs(exact_values) >= RELERR_GUARD * np.max(np.abs(exact_values)))
    if not np.any(keep):
        return float("nan")
    ratio = np.abs((exact_values[keep] - approx_values[keep]) / exact_values[keep])
    return float(np.mean(ratio))


def metric_ev_err(exact_ev: float, approx_ev: float) -> float:
    """Relative error of the scalar evidence.

    An exact evidence of 0 gives no scale to be relative to: the error is
    nan, as :func:`metric_relerr` gives when every point is excluded.
    """
    exact_ev = float(exact_ev)
    if exact_ev == 0.0:
        return float("nan")
    return abs((exact_ev - float(approx_ev)) / exact_ev)


def metric_smse(y_star, pred) -> float:
    """Standardized mean squared error sum_j (y_j - pred_j)^2 / Var[y].

    The sum is not divided by the number of test points and the variance is
    the population variance of the supplied targets, matching the printed
    benchmark convention. Targets of zero variance (a single test point
    among them) give no scale: the error is nan, as :func:`metric_relerr`
    gives when every point is excluded.
    """
    y_star = np.asarray(y_star, dtype=float).reshape(-1)
    pred = np.asarray(pred, dtype=float).reshape(-1)
    var = float(np.var(y_star))
    if var == 0.0:
        return float("nan")
    return float(np.sum((y_star - pred) ** 2) / var)


# ---------------------------------------------------------------------------
# Configuration and records.


def _at_least(low: int):
    def check(value):
        if value is not None and value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        return value
    return check


def _nonempty(values) -> tuple:
    values = tuple(values)
    if not values:
        raise ValueError("is empty")
    return values


def _method_list(methods) -> tuple:
    methods = _nonempty(methods)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"{method!r} is not one of {', '.join(METHODS)}")
    return methods


def _step_schedule(steps) -> tuple:
    steps = tuple(map(int, _nonempty(steps)))
    _at_least(0)(min(steps))
    if len(set(steps)) < len(steps):
        raise ValueError(f"must be distinct, got {', '.join(map(str, steps))}")
    return tuple(sorted(steps))


# Each ExperimentConfig field's rule, which the config reader applies too: ValueError, or the value to store.
CONFIG_CHECKS = {"methods": _method_list, "steps": _step_schedule, "fixed_m": _at_least(1), "kmcg_m": _at_least(1),
                 "repetitions": _at_least(1), "master_seed": _at_least(0), "inducing_cap": _at_least(1)}


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: Kernel
    sigma2: float
    methods: tuple = METHODS
    steps: tuple = tuple(range(1, 11))  # stored in ascending order
    fixed_m: Optional[int] = None  # None means M = ceil(sqrt(N P))
    kmcg_m: Optional[int] = None  # None means M = N
    cg_eps: Optional[float] = None  # None means 0.01 ||b||
    repetitions: int = 10
    master_seed: int = 0
    inducing_cap: int = 500

    def __post_init__(self):
        _check_sigma2(self.sigma2)
        for name, check in CONFIG_CHECKS.items():
            try:
                object.__setattr__(self, name, check(getattr(self, name)))
            except ValueError as error:
                raise ValueError(f"{name} {error}") from None


@dataclass(frozen=True)
class ExperimentRecord:
    method: str
    step: int
    budget: int
    run: str
    eps_f: float
    eps_var: float
    eps_ev: float
    smse: float
    seconds: float
    effective_p: int
    reason: str


# (name, type) of each record field, in order: the CSV columns.
_COLUMNS = tuple(get_type_hints(ExperimentRecord).items())
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def budget_for(config: ExperimentConfig, n: int, step: int) -> int:
    """Inducing budget for `step`: fixed_m if set, else ceil(sqrt(N P)); at most inducing_cap and N."""
    m = math.ceil(math.sqrt(n * step)) if config.fixed_m is None else config.fixed_m
    return max(1, min(m, config.inducing_cap, n))


def _inducing_seed(config: ExperimentConfig, rep: int) -> np.random.Generator:
    seq = np.random.SeedSequence([int(config.master_seed), _STREAM_INDUCING, int(rep)])
    return np.random.default_rng(seq)


# ---------------------------------------------------------------------------
# The runner.


@dataclass(frozen=True)
class _Oracle:
    mean: np.ndarray
    var: np.ndarray
    evidence: float
    smse: float
    seconds: float


def _fit_oracle(config: ExperimentConfig, data: Dataset) -> _Oracle:
    start = time.perf_counter()
    model = exact.fit(config.kernel, data.X, data.y, config.sigma2)
    mean = exact.predict_mean(model, data.X_star)
    var = exact.predict_var(model, data.X_star)
    evidence = exact.log_evidence(model)
    seconds = time.perf_counter() - start
    return _Oracle(mean=mean, var=var, evidence=evidence,
                   smse=metric_smse(data.y_star, mean), seconds=seconds)


def _batch(method, steps, budget, run, oracle, data, compute) -> list[ExperimentRecord]:
    """The records of `steps` from one timed compute(), labelled `run`.

    compute() returns (mean, var, evidence, effective_p, reason) per step, in
    order; a var or evidence of None records nan. Its time goes to the
    record of the largest step; the others carry 0 s. If it raises, every
    step records the failure, with nan metrics and 0 s. budget(step) is the
    record's budget.
    """
    nan = float("nan")
    try:
        start = time.perf_counter()
        results = compute()
        seconds = time.perf_counter() - start
    except Exception as error:  # recorded, never aborts other methods
        return [ExperimentRecord(method, step, budget(step), run, nan, nan, nan, nan, 0.0, 0,
                                 f"error: {type(error).__name__}: {error}") for step in steps]
    return [ExperimentRecord(
        method=method, step=step, budget=budget(step), run=run,
        eps_f=metric_relerr(oracle.mean, mean),
        eps_var=nan if var is None else metric_relerr(oracle.var, var),
        eps_ev=nan if evidence is None else metric_ev_err(oracle.evidence, evidence),
        smse=metric_smse(data.y_star, mean), seconds=seconds if step == max(steps) else 0.0,
        effective_p=p, reason=reason,
    ) for step, (mean, var, evidence, p, reason) in zip(steps, results)]


def _run_kmcg(config, data, oracle) -> list[ExperimentRecord]:
    """One batch: one fit serves every step, on all the points at M = N and
    on the first M of repetition 0's permutation at M < N."""
    m = data.n_train if config.kmcg_m is None else min(config.kmcg_m, data.n_train)

    def compute():
        models = kmcg.kmcg_models_for_steps(config.kernel, data.X, data.y, config.sigma2, steps=config.steps,
                                            M=m, eps=config.cg_eps, seed=_inducing_seed(config, 0))
        predictions = kmcg.kmcg_predictions(list(models.values()), data.X_star)
        return [(mean, var, kmcg.kmcg_evidence(model), model.steps, model.reason)
                for model, (mean, var) in zip(models.values(), predictions)]

    return _batch("kmcg", config.steps, lambda step: m, "0", oracle, data, compute)


def _run_cg(config, data, oracle, method) -> list[ExperimentRecord]:
    def compute():
        means = solvers.cg_predict_means(config.kernel, data.X, data.y, config.sigma2, data.X_star,
                                         config.steps, eps=config.cg_eps, reorth=method == "cg-reorth")
        return [(mean, None, None, p, reason) for mean, p, reason in means]

    return _batch(method, config.steps, lambda step: data.n_train, "0", oracle, data, compute)


def _run_inducing(config, data, oracle, methods, rep) -> dict[str, list[ExperimentRecord]]:
    """One batch per listed inducing baseline (sor, dtc, fitc, vfe) at every
    step of one repetition, by method.

    One lowrank.InducingFits on the first M points of the repetition's
    permutation, M the largest budget, serves every step, each reading the
    fit on its own budget's prefix, predicted once per distinct budget. The
    batches run in METHODS order, so each piece of shared work is charged to
    the largest step's record of the first method that uses it.
    """
    budget = functools.partial(budget_for, config, data.n_train)
    X_U = data.X[_inducing_seed(config, rep).permutation(data.n_train)[: max(map(budget, config.steps))]]
    fits = lowrank.InducingFits(config.kernel, data.X, data.y, config.sigma2, X_U, data.X_star)

    def compute(method):
        fitted = {m: fits.predict(method, m) for m in sorted(set(map(budget, config.steps)))}
        return [(*fitted[budget(step)], 0, "ok") for step in config.steps]

    return {method: _batch(method, config.steps, budget, str(rep), oracle, data, functools.partial(compute, method))
            for method in methods}


def _run_pbr(config, data, oracle) -> list[ExperimentRecord]:
    """One batch: one eigenexpansion, feature pass and factorization serve every step."""
    budget = functools.partial(budget_for, config, data.n_train)

    def compute():
        sds = np.maximum(data.X.std(axis=0), 1e-8)
        max_rank = max(map(budget, config.steps))
        expansion = lowrank.se_eigen_expansion(config.kernel, data.X.mean(axis=0), sds, max_rank)
        fits = lowrank.PbrFits(expansion, data.X, data.y, config.sigma2, data.X_star)
        return [(fits.predict(min(budget(step), expansion.eigenvalues.size)), None, None, 0, "ok")
                for step in config.steps]

    return _batch("pbr", config.steps, budget, "0", oracle, data, compute)


def _aggregate(records: list[ExperimentRecord]) -> list[ExperimentRecord]:
    """Mean per step plus progressive min/max across repetitions and budgets; records in step order."""
    out = []
    metrics = ("eps_f", "eps_var", "eps_ev", "smse")
    running_min = {m: float("inf") for m in metrics}
    running_max = {m: -float("inf") for m in metrics}
    for _, group in itertools.groupby(records, key=lambda r: r.step):
        rows = list(group)
        values = {m: np.asarray([getattr(r, m) for r in rows]) for m in metrics}
        mean_row = {m: float(np.nanmean(v)) if np.any(np.isfinite(v)) else float("nan")
                    for m, v in values.items()}
        for m, v in values.items():
            finite = v[np.isfinite(v)]
            if finite.size:
                running_min[m] = min(running_min[m], float(np.min(finite)))
                running_max[m] = max(running_max[m], float(np.max(finite)))
        seconds = float(np.sum([r.seconds for r in rows]))
        for run, source in (("mean", mean_row), ("min", running_min), ("max", running_max)):
            vals = {m: (source[m] if np.isfinite(source[m]) else float("nan")) for m in metrics}
            out.append(replace(rows[0], run=run, seconds=seconds, reason="aggregate", **vals))
    return out


def run_experiment(config: ExperimentConfig, data: Dataset) -> list[ExperimentRecord]:
    """Run every configured method over the step schedule; see module docs.

    Per-method failures are recorded in the reason column and never abort
    the other methods. Returns individual records followed by aggregate
    rows per baseline method.
    """
    oracle = _fit_oracle(config, data)
    records: list[ExperimentRecord] = []
    n = data.n_train

    if "exact" in config.methods:
        records.append(ExperimentRecord(
            method="exact", step=0, budget=n, run="0",
            eps_f=0.0, eps_var=0.0, eps_ev=0.0, smse=oracle.smse,
            seconds=oracle.seconds, effective_p=0, reason="ok",
        ))
    if "kmcg" in config.methods:
        records.extend(_run_kmcg(config, data, oracle))
    for method in ("cg-reorth", "cg-textbook"):
        if method in config.methods:
            records.extend(_run_cg(config, data, oracle, method))

    inducing = [m for m in ("sor", "dtc", "fitc", "vfe") if m in config.methods]
    by_rep = [_run_inducing(config, data, oracle, inducing, rep) for rep in range(config.repetitions)]
    for method in inducing:
        rows = [row for at_step in zip(*(batches[method] for batches in by_rep)) for row in at_step]
        records.extend(rows)
        if config.repetitions > 1:
            records.extend(_aggregate(rows))
    if "pbr" in config.methods:
        records.extend(_run_pbr(config, data, oracle))  # pbr is deterministic: one repetition
    return records


# ---------------------------------------------------------------------------
# CSV emission.


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_csv(records, path) -> None:
    """Write records with the fixed column order of CSV_HEADER."""
    with open(path, "w", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        writer = csv.writer(handle)
        for r in records:
            writer.writerow([_fmt(getattr(r, name)) for name, _ in _COLUMNS])


def read_records_csv(path) -> list[ExperimentRecord]:
    """Read back a records CSV written by :func:`emit_csv`."""
    out = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if ",".join(header) != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(_COLUMNS):
                raise ValueError(f"{path}: a row has {len(row)} cells, expected {len(_COLUMNS)}")
            out.append(ExperimentRecord(*(kind(cell) for (_, kind), cell in zip(_COLUMNS, row))))
    return out
