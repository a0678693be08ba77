"""Dataset containers, generators and loaders for the benchmark harness.

The on-disk dataset format is a headed CSV with columns x0..x{D-1}, y and a
split column holding ``train`` or ``test``; values are comma-separated
decimals. :func:`load_csv` reads it, and any other headed numeric CSV.
Generators are deterministic in their seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import linalg
from .kernels import Kernel, gram, se_kernel

TOY_LAMBDA = 0.25
TOY_THETA_F = 2.0
# The toy setup does not pin an observation noise; this package-wide default
# is what the demos and tests use.
TOY_DEFAULT_SIGMA2 = 1e-2


@dataclass(frozen=True)
class Dataset:
    """Train/test split.

    Train and test sets are disjoint by construction in every generator and
    loader; entries are checked finite.
    """

    X: np.ndarray
    y: np.ndarray
    X_star: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        X_star = np.atleast_2d(np.asarray(self.X_star, dtype=float))
        y = np.asarray(self.y, dtype=float).reshape(-1)
        y_star = np.asarray(self.y_star, dtype=float).reshape(-1)
        for name, arr in (("X", X), ("y", y), ("X_star", X_star), ("y_star", y_star)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"dataset field {name} contains non-finite values")
        if X.shape[0] != y.size or X_star.shape[0] != y_star.size:
            raise ValueError("input/target counts are inconsistent")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X_star", X_star)
        object.__setattr__(self, "y_star", y_star)

    @property
    def n_train(self) -> int:
        return self.y.size

    @property
    def n_test(self) -> int:
        return self.y_star.size

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def toy_kernel() -> Kernel:
    return se_kernel([TOY_LAMBDA], TOY_THETA_F)


def _toy_inputs(rng: np.random.Generator, count: int) -> np.ndarray:
    """Half Gaussian-mixture draws, half uniform on [0, 1].

    The mixture has equal-weight components N(0, 1), N(1, 0.1) and
    N(-0.5, 0.05), variances as listed.
    """
    half = count // 2
    means = np.array([0.0, 1.0, -0.5])
    sds = np.sqrt(np.array([1.0, 0.1, 0.05]))
    comp = rng.integers(0, 3, size=half)
    mixture = rng.normal(means[comp], sds[comp])
    uniform = rng.uniform(0.0, 1.0, size=count - half)
    return np.concatenate([mixture, uniform]).reshape(-1, 1)


def gen_toy(seed=0, n_train: int = 100, n_test: int = 100) -> Dataset:
    """The 1-D toy problem: 100 training points, targets drawn from a GP.

    Inputs come half from a three-component Gaussian mixture and half from
    the uniform distribution on [0, 1]; targets for the train and test
    inputs are one joint draw from the zero-mean squared-exponential GP
    (metric 0.25, amplitude 2) via a jittered Cholesky factor. An n_train
    or n_test below 1 raises ValueError.
    """
    for name, n in (("n_train", n_train), ("n_test", n_test)):
        if n < 1:
            raise ValueError(f"{name} must be at least 1, got {n}")
    rng = np.random.default_rng(seed)
    kernel = toy_kernel()
    X = _toy_inputs(rng, n_train)
    X_star = _toy_inputs(rng, n_test)
    joint = np.vstack([X, X_star])
    factor = linalg.cholesky(gram(kernel, joint))
    targets = factor.L @ rng.standard_normal(joint.shape[0])
    return Dataset(X=X, y=targets[:n_train], X_star=X_star, y_star=targets[n_train:])


def load_csv(path, target_column: str, test_fraction: float = 0.5, seed=0) -> Dataset:
    """Load a headed CSV and split it into train and test rows.

    Every column other than the target and ``split`` is a feature. A file
    with a ``split`` column (as :func:`write_dataset_csv` writes) is split
    by its ``train``/``test`` labels in file order, and `test_fraction` and
    `seed` do not affect the split; any other file is shuffled
    deterministically in `seed` and its first round(n * test_fraction)
    shuffled rows are the test set. Parse failures, and split labels other
    than train or test, report the offending row and column; a missing
    target column names the available headers. A split with no training or
    no test row raises ValueError.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = [h.strip() for h in _header(path, reader)]
        label = header.index("split") if "split" in header else None
        columns = [h for i, h in enumerate(header) if i != label]
        if target_column not in columns:
            raise ValueError(
                f"{path}: target column {target_column!r} not found; available: {header}"
            )
        target_idx = columns.index(target_column)
        numbers, data, labels = _numeric_rows(path, reader, header, label)
    y_all = data[:, target_idx]
    X_all = np.delete(data, target_idx, axis=1)
    n = data.shape[0]
    if label is None:
        order = np.random.default_rng(seed).permutation(n)
        n_test = int(round(n * test_fraction))
        if not 0 < n_test < n:
            raise ValueError(f"{path}: test_fraction {test_fraction} splits {n} rows into "
                             f"{n - n_test} training and {n_test} test rows; both need at least one")
        test_idx, train_idx = order[:n_test], order[n_test:]
    else:
        labels = np.asarray(labels)
        bad = np.flatnonzero((labels != "train") & (labels != "test"))
        if bad.size:
            raise ValueError(f"{path}: row {numbers[bad[0]]}, column 'split': "
                             f"label {labels[bad[0]]!r} is neither train nor test")
        test_idx, train_idx = np.flatnonzero(labels == "test"), np.flatnonzero(labels == "train")
        if not (test_idx.size and train_idx.size):
            raise ValueError(f"{path}: the split column gives {train_idx.size} training and "
                             f"{test_idx.size} test rows; both need at least one")
    return Dataset(X=X_all[train_idx], y=y_all[train_idx], X_star=X_all[test_idx], y_star=y_all[test_idx])


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _header(path, reader) -> list[str]:
    try:
        return next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file, a header row is required") from None


def _numeric_rows(path, reader, header, label=None) -> tuple[list[int], np.ndarray, list[str]]:
    """The file row numbers, values and labels of every non-empty data row.

    Column `label` (an index, or None for no such column) holds text, which
    comes back stripped in the third list; every other cell is a number. A
    row whose cell count differs from the header's, or a cell that is not a
    number, raises ValueError naming the row (and the column); so does a
    file with no data rows.
    """
    numeric = [i for i in range(len(header)) if i != label]
    numbers, rows, labels = [], [], []
    for row_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row_number} has {len(row)} cells, expected {len(header)}")
        try:
            rows.append([float(row[i]) for i in numeric])
        except ValueError:
            bad = next(i for i in numeric if not _is_float(row[i]))
            raise ValueError(
                f"{path}: row {row_number}, column {header[bad]!r}: non-numeric cell {row[bad]!r}"
            ) from None
        if label is not None:
            labels.append(row[label].strip())
        numbers.append(row_number)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return numbers, np.asarray(rows, dtype=float), labels


def load_series_csv(path) -> Dataset:
    """Load an equispaced series CSV with columns time, value, mask.

    Rows with mask 1 train, rows with mask 0 test. A ragged row, a
    non-numeric cell or a mask other than 0 or 1 raises ValueError naming
    the row, as :func:`load_csv` does; so do a wrong header and gaps that
    differ from the first gap g by more than 1e-9 max(|g|, 1).
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = [h.strip().lower() for h in _header(path, reader)]
        if header[:3] != ["time", "value", "mask"]:
            raise ValueError(f"{path}: expected header time,value,mask, got {header}")
        numbers, data, _ = _numeric_rows(path, reader, header)
    times, values, mask = data[:, :1], data[:, 1], data[:, 2]
    bad = np.flatnonzero((mask != 0.0) & (mask != 1.0))
    if bad.size:
        raise ValueError(f"{path}: row {numbers[bad[0]]}, column 'mask': {mask[bad[0]]:g} is neither 0 nor 1")
    gaps = np.diff(times[:, 0])
    if gaps.size and np.max(np.abs(gaps - gaps[0])) > 1e-9 * max(abs(gaps[0]), 1.0):
        raise ValueError(f"{path}: time column is not equispaced")
    return Dataset(X=times[mask == 1], y=values[mask == 1], X_star=times[mask == 0], y_star=values[mask == 0])


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the harness format (x0.., y, split)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"x{d}" for d in range(dataset.dim)] + ["y", "split"])
        for row, target in zip(dataset.X, dataset.y):
            writer.writerow([format(v, ".17g") for v in row] + [format(target, ".17g"), "train"])
        for row, target in zip(dataset.X_star, dataset.y_star):
            writer.writerow([format(v, ".17g") for v in row] + [format(target, ".17g"), "test"])
