"""The three benchmark workloads; see README.md for why each was chosen.

Each workload generates its inputs from the benchmark seed in ``setup``,
runs one op through a public entry point in ``op``, and checks that op's
outputs in ``check``. ``check`` returns a :class:`Checked` holding the
problems found (each one fails the op), the invariant that must repeat
exactly across ops, the accuracy figures and, where the op times one, the
predict time. Every op of a run works on the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from kernelcg import cli, datasets, exact, kernels, kmcg, structured


@dataclass
class Checked:
    problems: list = field(default_factory=list)
    invariant: object = None
    accuracy: dict = field(default_factory=dict)
    predict_s: float | None = None


def _gp_targets(rng, X, family, lam, theta_f, sigma2):
    """One joint GP draw over X plus observation noise, in plain numpy.

    Independent of the program's Gram assembly, so inputs do not move when
    the program changes.
    """
    d2 = np.zeros((X.shape[0], X.shape[0]))
    for d in range(X.shape[1]):
        diff = X[:, d, None] - X[None, :, d]
        d2 += lam * diff * diff
    if family == "se":
        K = theta_f * np.exp(-0.5 * d2)
    else:
        r = np.sqrt(5.0 * d2)
        K = theta_f * (1.0 + r + r * r / 3.0) * np.exp(-r)
    K[np.diag_indices_from(K)] += 1e-8 * theta_f
    f = np.linalg.cholesky(K) @ rng.standard_normal(X.shape[0])
    return f + math.sqrt(sigma2) * rng.standard_normal(X.shape[0])


def _relerr(exact_value: float, approx_value: float) -> float:
    return abs(approx_value - exact_value) / abs(exact_value)


def _mean_relerr(exact_values, approx_values) -> float:
    return float(np.mean(np.abs(approx_values - exact_values) / np.abs(exact_values)))


def _smse(y_star, pred) -> float:
    return float(np.sum((y_star - pred) ** 2) / np.var(y_star))


def _predict(model, X_star):
    """One model's mean, pointwise variance and evidence, as the harness takes them."""
    mean = kmcg.kmcg_mean(model, X_star)
    var = np.diag(kmcg.kmcg_var(model, X_star))
    evidence = kmcg.kmcg_evidence(model)
    return mean, var, evidence


def time_predict(model, X_star) -> float:
    """Seconds for one checked predict call; raises if its outputs are bad."""
    start = time.perf_counter()
    mean, var, evidence = _predict(model, X_star)
    seconds = time.perf_counter() - start
    problems = []
    _check_prediction("predict", mean, var, evidence, problems)
    if problems:
        raise RuntimeError("; ".join(problems))
    return seconds


def _check_prediction(tag, mean, var, evidence, problems) -> None:
    if not np.all(np.isfinite(mean)):
        problems.append(f"{tag}: non-finite mean")
    if not (np.all(np.isfinite(var)) and np.all(var >= 0.0)):
        problems.append(f"{tag}: variance not finite and nonnegative (min {np.min(var):.3e})")
    if not math.isfinite(evidence):
        problems.append(f"{tag}: non-finite evidence {evidence}")


# ---------------------------------------------------------------------------


class HarnessDense:
    """One in-process ``kernelcg run --config`` on a CSV the benchmark writes."""

    name = "harness-dense"
    N_TRAIN, N_TEST, DIM = 1500, 500, 4
    METRIC, THETA_F, SIGMA2 = 2.0, 1.5, 0.1
    METHODS = ("exact", "kmcg", "cg-reorth", "sor", "dtc", "fitc", "vfe", "pbr")
    STEPS = tuple(range(1, 11))
    REPETITIONS = 3
    THREADS = 2
    PREDICT_EXTRA = 4
    _AGGREGATED = ("sor", "dtc", "fitc", "vfe")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "harness.ini")
        self.records_path = os.path.join(workdir, "records.csv")
        self.reference = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.N_TRAIN + self.N_TEST
        X = rng.uniform(0.0, 2.0, (n, self.DIM))
        y = _gp_targets(rng, X, "se", self.METRIC, self.THETA_F, self.SIGMA2)
        data_path = os.path.join(self.workdir, "data.csv")
        with open(data_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f"x{d}" for d in range(self.DIM)] + ["y"])
            for row, target in zip(X, y):
                writer.writerow([format(v, ".17g") for v in row] + [format(target, ".17g")])
        with open(self.config_path, "w") as handle:
            handle.write(
                "[dataset]\nsource = csv\n"
                f"path = {data_path}\ntarget = y\n"
                f"test_fraction = {self.N_TEST / n!r}\nseed = {self.seed}\n"
                "[kernel]\nfamily = se\n"
                f"metric = {self.METRIC!r}\ntheta_f = {self.THETA_F!r}\nsigma2 = {self.SIGMA2!r}\n"
                f"[methods]\nlist = {', '.join(self.METHODS)}\n"
                f"[schedule]\nsteps = {self.STEPS[0]}:{self.STEPS[-1]}\n"
                f"repetitions = {self.REPETITIONS}\nseed = {self.seed}\n"
                f"[output]\npath = {self.records_path}\n"
            )
        # The library model behind predict_ms: the harness's own split and
        # its largest step budget, with M = N as in the harness's kmcg rows.
        split = datasets.load_csv(data_path, "y", self.N_TEST / n, seed=self.seed)
        kernel = kernels.se_kernel(np.full(self.DIM, self.METRIC), self.THETA_F)
        self.model = kmcg.kmcg_fit(kernel, split.X, split.y, self.SIGMA2, max_steps=max(self.STEPS))
        self.X_star = split.X_star
        os.environ["KERNELCG_THREADS"] = str(self.THREADS)

    def op(self):
        # The command's one-line report would land before the result line.
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", "--config", self.config_path])

    def expected_records(self) -> int:
        steps = len(self.STEPS)
        count = 0
        for method in self.METHODS:
            if method == "exact":
                count += 1
            elif method in self._AGGREGATED:
                count += steps * self.REPETITIONS + (3 * steps if self.REPETITIONS > 1 else 0)
            else:
                count += steps
        return count

    def check(self, status) -> Checked:
        out = Checked()
        if status != 0:
            out.problems.append(f"kernelcg run returned {status}")
        with open(self.records_path, newline="") as handle:
            rows = list(csv.reader(handle))
        header, records = rows[0], rows[1:]
        if len(records) != self.expected_records():
            out.problems.append(f"{len(records)} records, expected {self.expected_records()}")
        errors = [r for r in records if r[-1].startswith("error:")]
        if errors:
            out.problems.append(f"{len(errors)} error records, first: {errors[0][-1]}")
        # Byte-identical apart from the seconds column, op after op.
        seconds = header.index("seconds")
        stripped = tuple(tuple(v for i, v in enumerate(r) if i != seconds) for r in rows)
        if self.reference is None:
            self.reference = stripped
        elif stripped != self.reference:
            out.problems.append("records differ from the first op's apart from seconds")
        out.invariant = stripped
        col = {name: i for i, name in enumerate(header)}
        last = [r for r in records if r[col["method"]] == "kmcg" and int(r[col["step"]]) == max(self.STEPS)]
        if len(last) != 1:
            out.problems.append("no kmcg record at the largest step")
        else:
            acc = {k: float(last[0][col[k]]) for k in ("eps_f", "eps_ev", "smse")}
            if not all(math.isfinite(v) for v in acc.values()):
                out.problems.append(f"non-finite kmcg accuracy at the largest step: {acc}")
            out.accuracy = acc
        return out

    def predict_model(self, result):
        """The model and test inputs behind predict_ms: fit in setup, see there."""
        return self.model, self.X_star


# ---------------------------------------------------------------------------


class KmcgTrace:
    """``kmcg_models_for_steps`` then mean, variance and evidence per budget."""

    name = "kmcg-trace"
    N_TRAIN, N_TEST, DIM = 2000, 200, 2
    METRIC, THETA_F, SIGMA2 = 4.0, 1.0, 0.1
    BUDGETS = tuple(37 * k for k in range(1, 17))
    # Relative evidence error allowed at the largest budget against the exact
    # oracle; seeds 0-4 give 1.9e-4 to 2.1e-4.
    EV_TOLERANCE = 1e-3
    PREDICT_EXTRA = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self.N_TRAIN + self.N_TEST
        X = rng.uniform(0.0, 2.0, (n, self.DIM))
        y = _gp_targets(rng, X, "matern52", self.METRIC, self.THETA_F, self.SIGMA2)
        self.X, self.y = X[: self.N_TRAIN], y[: self.N_TRAIN]
        self.X_star, self.y_star = X[self.N_TRAIN :], y[self.N_TRAIN :]
        self.kernel = kernels.matern52_kernel(np.full(self.DIM, self.METRIC), self.THETA_F)
        oracle = exact.fit(self.kernel, self.X, self.y, self.SIGMA2)
        self.oracle_mean = exact.predict_mean(oracle, self.X_star)
        self.oracle_evidence = exact.log_evidence(oracle)

    def op(self):
        models = kmcg.kmcg_models_for_steps(self.kernel, self.X, self.y, self.SIGMA2, steps=self.BUDGETS)
        out = {}
        for p in self.BUDGETS:
            start = time.perf_counter()
            prediction = _predict(models[p], self.X_star)
            out[p] = (models[p], prediction, time.perf_counter() - start)
        return out

    def check(self, result) -> Checked:
        out = Checked()
        invariant = []
        for p, (model, (mean, var, evidence), _) in result.items():
            if not (model.steps <= model.cg_steps <= p):
                out.problems.append(f"budget {p}: steps {model.steps}, cg_steps {model.cg_steps}")
            _check_prediction(f"budget {p}", mean, var, evidence, out.problems)
            invariant.append((p, model.cg_steps, model.steps, model.reason))
        model, (mean, _, evidence), predict_s = result[self.BUDGETS[-1]]
        out.accuracy = {
            "eps_f": _mean_relerr(self.oracle_mean, mean),
            "eps_ev": _relerr(self.oracle_evidence, evidence),
            "smse": _smse(self.y_star, mean),
        }
        if not (out.accuracy["eps_ev"] <= self.EV_TOLERANCE):
            out.problems.append(
                f"eps_ev {out.accuracy['eps_ev']:.3e} at budget {self.BUDGETS[-1]} "
                f"exceeds {self.EV_TOLERANCE:g}"
            )
        out.invariant = tuple(invariant)
        out.predict_s = predict_s
        return out

    def predict_model(self, result):
        return result[self.BUDGETS[-1]][0], self.X_star


# ---------------------------------------------------------------------------


def kron_oracle_evidence(axes, lam, theta_f, y, sigma2) -> float:
    """Exact log evidence of a product-SE GP on a grid, by per-axis eigendecomposition.

    (K_1 kron ... kron K_D + sigma2 I) has eigenvectors Q_1 kron ... kron Q_D
    and eigenvalues the products of the per-axis ones plus sigma2, so the
    quadratic form and log determinant cost O(N sum G_d). Written apart from
    the program's structured module so it can serve as an oracle for it.
    """
    amp = theta_f ** (1.0 / len(axes))
    values, vectors = [], []
    for a, l in zip(axes, lam):
        w, Q = np.linalg.eigh(amp * np.exp(-0.5 * l * (a[:, None] - a[None, :]) ** 2))
        values.append(w)
        vectors.append(Q)
    shape = tuple(len(a) for a in axes)
    spectrum = values[0]
    for w in values[1:]:
        spectrum = np.multiply.outer(spectrum, w)
    spectrum = spectrum + sigma2
    rotated = y.reshape(shape)
    for d, Q in enumerate(vectors):
        rotated = np.moveaxis(np.tensordot(Q.T, rotated, axes=(1, d)), 0, d)
    quad = float(np.sum(rotated**2 / spectrum))
    return -0.5 * quad - 0.5 * float(np.sum(np.log(spectrum))) - 0.5 * y.size * math.log(2.0 * math.pi)


def _grid_axes(X, G: int, D: int):
    """Per-axis coordinates of a row-major grid (first axis slowest)."""
    grid = X.reshape((G,) * D + (D,))
    return [grid[(0,) * d + (slice(None),) + (0,) * (D - d - 1) + (d,)].copy() for d in range(D)]


class GridKron:
    """``kmcg_fit`` on the Kronecker operator, then mean, variance and evidence."""

    name = "grid-kron"
    G, DIM = 32, 3
    METRIC, THETA_F, SIGMA2 = 1.0, 1.0, 0.01
    N_TEST = 200
    MAX_STEPS = 96
    ROW_SAMPLES = 16
    MVM_TOLERANCE = 1e-10
    # The oracle is checked against the dense exact GP on a small grid.
    ORACLE_CHECK_G, ORACLE_TOLERANCE = 6, 1e-9
    # One op may not allocate an eighth of an N x N float64 matrix at once.
    PEAK_LIMIT_BYTES = (G**DIM) ** 2 * 8 // 8
    PREDICT_EXTRA = 0  # the op's own predict is half the op

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        self.kernel = kernels.se_kernel(np.full(self.DIM, self.METRIC), self.THETA_F)
        data = structured.grid_dataset(self.G, self.DIM, self.kernel, seed=self.seed, n_test=self.N_TEST)
        self.X, self.y, self.X_star, self.y_star = data.X, data.y, data.X_star, data.y_star
        self.axes = _grid_axes(self.X, self.G, self.DIM)
        self.oracle_evidence = kron_oracle_evidence(
            self.axes, self.kernel.lam, self.THETA_F, self.y, self.SIGMA2
        )

    def check_oracle(self) -> list[str]:
        """The Kronecker oracle against the dense exact GP on a small grid."""
        small = structured.grid_dataset(self.ORACLE_CHECK_G, self.DIM, self.kernel, seed=self.seed, n_test=4)
        axes = _grid_axes(small.X, self.ORACLE_CHECK_G, self.DIM)
        ours = kron_oracle_evidence(axes, self.kernel.lam, self.THETA_F, small.y, self.SIGMA2)
        dense = exact.log_evidence(exact.fit(self.kernel, small.X, small.y, self.SIGMA2))
        err = _relerr(dense, ours)
        if not (err <= self.ORACLE_TOLERANCE):
            return [f"Kronecker oracle evidence off the dense oracle by {err:.3e}"]
        return []

    def op(self):
        operator = structured.grid_spec(self.kernel, self.axes).operator()
        model = kmcg.kmcg_fit(
            self.kernel, self.X, self.y, self.SIGMA2, operator=operator, max_steps=self.MAX_STEPS
        )
        start = time.perf_counter()
        prediction = _predict(model, self.X_star)
        return operator, model, prediction, time.perf_counter() - start

    def check(self, result) -> Checked:
        operator, model, (mean, var, evidence), predict_s = result
        out = Checked(predict_s=predict_s)
        if not (model.steps <= model.cg_steps <= self.MAX_STEPS):
            out.problems.append(f"steps {model.steps}, cg_steps {model.cg_steps}")
        _check_prediction("grid", mean, var, evidence, out.problems)
        # Sampled rows of the Kronecker product against the dense kernel rows;
        # only ROW_SAMPLES x N entries are built, never N x N.
        rng = np.random.default_rng([self.seed, 1])
        rows = rng.choice(self.X.shape[0], size=self.ROW_SAMPLES, replace=False)
        v = rng.standard_normal(self.X.shape[0])
        got = operator.apply(v)[rows]
        want = kernels.gram(self.kernel, self.X[rows], self.X) @ v
        err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        if not (err <= self.MVM_TOLERANCE):
            out.problems.append(f"Kronecker MVM rows off the dense rows by {err:.3e}")
        out.accuracy = {
            "eps_ev": _relerr(self.oracle_evidence, evidence),
            "smse": _smse(self.y_star, mean),
            "mvm_relerr": err,
        }
        out.invariant = (model.cg_steps, model.steps, model.reason)
        return out


WORKLOADS = {w.name: w for w in (HarnessDense, KmcgTrace, GridKron)}
