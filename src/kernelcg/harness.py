"""Benchmark harness: budget-matched method comparison with CSV records.

For every step budget P in the schedule the harness evaluates the CG-based
estimators at P steps and every inducing-point baseline at the matched
budget M = ceil(sqrt(N P)), or fixed_m if set, against the exact GP oracle,
in ascending step order. Baselines are repeated with freshly drawn inducing
subsets; aggregate rows carry the mean per step plus the progressive
minimum and maximum across repetitions and budgets.

Randomness is derived from the master seed by a counter scheme,
SeedSequence([master, stream, step, repetition]); the inducing-selection
stream is shared by all methods so that budget-matched methods draw the
same subsets at equal (step, repetition). Records are therefore
deterministic given the master seed. Every method runs in the calling
thread, one after another, so no record's time overlaps another's.

The `seconds` of a record is the wall time of the work done for it, and
work shared by several records is charged once, by two rules. First,
kmcg, cg-reorth, cg-textbook and pbr record through timed batches
(_batch): a batch is one piece of work that gives several steps' records
(a kmcg fit with its predictions and evidences, one
solvers.cg_predict_means call, pbr's eigenexpansion with every rank's
mean); its time goes to the record of its largest step, the others carry
0 s, and if it raises every step it holds fails. kmcg at M = N is one
batch, at M < N one per step, each on its own subset. Second, sor, dtc,
fitc and vfe are fitted together on each (step, repetition) subset
(lowrank.InducingFits); each piece of work they share is charged to the
record of the first method in METHODS order that uses it, each record
adds its own extra work, and each method fails on its own. The `reason`
of a kmcg, cg-reorth or cg-textbook record says why CG stopped within its
budget (converged, maxsteps or breakdown). Baselines say "ok", aggregate
rows "aggregate", and a failed method "error: " and the exception.

Records use pointwise predictive variances only: `eps_var` compares
exact.predict_var with kmcg.kmcg_predictions and the pointwise variances of
lowrank (plain for sor, dtc for dtc, fitc and vfe, from the phi(X*) each
subset shares). No method forms k(X*, X*) or any other n* x n* array, so
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
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not self.steps:
            raise ValueError("the step schedule must be nonempty")
        if not self.methods:
            raise ValueError("the method list must be nonempty")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}; available: {METHODS}")
        for name in ("fixed_m", "kmcg_m", "inducing_cap"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be at least 0, got {self.master_seed}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "steps", tuple(int(p) for p in self.steps))
        if min(self.steps) < 0:
            raise ValueError(f"step budgets must be at least 0, got {min(self.steps)}")
        if len(set(self.steps)) < len(self.steps):
            raise ValueError(f"step budgets must be distinct, got {', '.join(map(str, self.steps))}")
        object.__setattr__(self, "steps", tuple(sorted(self.steps)))


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


def _inducing_seed(config: ExperimentConfig, step: int, rep: int) -> np.random.Generator:
    seq = np.random.SeedSequence([int(config.master_seed), _STREAM_INDUCING, int(step), int(rep)])
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


def _record(method, step, budget, run, oracle, mean, var, evidence, y_star, seconds,
            effective_p, reason) -> ExperimentRecord:
    return ExperimentRecord(
        method=method, step=step, budget=budget, run=run,
        eps_f=metric_relerr(oracle.mean, mean),
        eps_var=float("nan") if var is None else metric_relerr(oracle.var, var),
        eps_ev=float("nan") if evidence is None else metric_ev_err(oracle.evidence, evidence),
        smse=metric_smse(y_star, mean),
        seconds=seconds, effective_p=effective_p, reason=reason,
    )


def _failure(method, step, budget, run, error) -> ExperimentRecord:
    nan = float("nan")
    return ExperimentRecord(method=method, step=step, budget=budget, run=run,
                            eps_f=nan, eps_var=nan, eps_ev=nan, smse=nan,
                            seconds=0.0, effective_p=0,
                            reason=f"error: {type(error).__name__}: {error}")


def _batch(method, steps, budget, oracle, data, compute) -> list[ExperimentRecord]:
    """The records of `steps` from one timed compute().

    compute() returns (mean, var, evidence, effective_p, reason) per step, in
    order. Its time goes to the record of the largest step; the others carry
    0 s. If it raises, every step records the failure. budget(step) is the
    record's budget.
    """
    try:
        start = time.perf_counter()
        results = compute()
        seconds = time.perf_counter() - start
    except Exception as error:  # recorded, never aborts other methods
        return [_failure(method, step, budget(step), "0", error) for step in steps]
    return [_record(method, step, budget(step), "0", oracle, mean, var, evidence, data.y_star,
                    seconds if step == max(steps) else 0.0, p, reason)
            for step, (mean, var, evidence, p, reason) in zip(steps, results)]


def _run_kmcg(config, data, oracle) -> list[ExperimentRecord]:
    """One batch per fit: every step at M = N, each step on its own subset at M < N."""
    n = data.n_train
    m = n if config.kmcg_m is None else min(config.kmcg_m, n)
    fits = [(config.steps, 0)] if m == n else [((step,), _inducing_seed(config, step, 0)) for step in config.steps]

    def compute(steps, seed):
        models = kmcg.kmcg_models_for_steps(config.kernel, data.X, data.y, config.sigma2,
                                            steps=steps, M=m, eps=config.cg_eps, seed=seed)
        predictions = kmcg.kmcg_predictions(list(models.values()), data.X_star)
        return [(mean, var, kmcg.kmcg_evidence(model), model.steps, model.reason)
                for model, (mean, var) in zip(models.values(), predictions)]

    return [record for steps, seed in fits
            for record in _batch("kmcg", steps, lambda step: m, oracle, data,
                                 functools.partial(compute, steps, seed))]


def _run_cg(config, data, oracle, method) -> list[ExperimentRecord]:
    def compute():
        means = solvers.cg_predict_means(config.kernel, data.X, data.y, config.sigma2, data.X_star,
                                         config.steps, eps=config.cg_eps, reorth=method == "cg-reorth")
        return [(mean, None, None, p, reason) for mean, p, reason in means]

    return _batch(method, config.steps, lambda step: data.n_train, oracle, data, compute)


def _inducing_once(config, data, oracle, methods, step, rep) -> list[ExperimentRecord]:
    """The listed inducing baselines (sor, dtc, fitc, vfe) on one inducing subset.

    Shared work is done once (see lowrank.InducingFits) and charged to the
    first method, in METHODS order, that uses it.
    """
    m = budget_for(config, data.n_train, step)
    start = time.perf_counter()
    X_U = data.X[lowrank.choose_inducing(data.n_train, m, _inducing_seed(config, step, rep))]
    fits = lowrank.InducingFits(config.kernel, data.X, data.y, config.sigma2, X_U, data.X_star)
    records = []
    for method in methods:
        try:
            mean, var, evidence = fits.predict(method)
            records.append(_record(method, step, m, str(rep), oracle, mean, var, evidence,
                                   data.y_star, time.perf_counter() - start, 0, "ok"))
        except Exception as error:
            records.append(_failure(method, step, m, str(rep), error))
        start = time.perf_counter()
    return records


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

    return _batch("pbr", config.steps, budget, oracle, data, compute)


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
    by_subset = [_inducing_once(config, data, oracle, inducing, step, rep)
                 for step in config.steps for rep in range(config.repetitions)] if inducing else []
    for i, method in enumerate(inducing):
        rows = [subset[i] for subset in by_subset]
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
