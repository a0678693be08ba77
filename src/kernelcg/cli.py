"""Command-line entry points: gen-toy, gen-grid, run, metrics.

The `run` subcommand reads a plain-text key/value config with sections
(dataset, kernel, methods, schedule, output) through one key table,
_SECTIONS, with each dataset source's keys in _SOURCES; CONFIG_TEMPLATE is a
commented example. An unknown section or key is an error, and so are a
value that does not parse or is out of range (a metric entry, theta_f or
sigma2 that is not positive and finite, a [methods] or [schedule] value
that breaks its field's harness.CONFIG_CHECKS rule) and a required key
left out, all named by section and key before any data file is read. A key
left out takes the default of the parameter it feeds. A bad config or an
unreadable or malformed file ends a command with one "error:" line on
stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys

import numpy as np

from . import datasets, harness, structured
from .kernels import Kernel, matern52_kernel, se_kernel

CONFIG_TEMPLATE = """\
[dataset]
source = toy            ; toy (default) | grid | csv | series-csv
seed = 0                ; toy, csv and grid; default 0 (a key the source does not read is an error)
; csv only (a split column of train/test labels, as gen-toy and gen-grid
; write, fixes the split; otherwise rows are shuffled with seed):
; path = data.csv       ; required
; target = y            ; required
; test_fraction = 0.5   ; default 0.5
; series-csv only (columns time,value,mask; mask 1 = observed):
; path = series.csv     ; required
; grid only:
; g = 10                ; default 10
; d = 2                 ; default 2

[kernel]
family = se             ; se (default) | matern52
metric = 0.25           ; per-dimension entries, comma separated (broadcast if one); default 1.0
theta_f = 2.0           ; default 1.0
sigma2 = 0.01           ; required

[methods]
list = exact, kmcg, cg-reorth, sor, dtc, fitc, vfe   ; default: all nine methods

[schedule]
steps = 1:10            ; inclusive range a:b, or a comma list, run in ascending order; default 1:10
; fixed_m = 20          ; a fixed inducing budget M; left out, M = ceil(sqrt(N P))
; kmcg_m =              ; empty or left out means M = N
repetitions = 10        ; default 10
inducing_cap = 500      ; default 500
seed = 12345            ; default 0

[output]
path = records.csv      ; default records.csv
"""


def _parse_steps(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(t) for t in text.replace(",", " ").split())


def _parse_optional_int(text: str):
    return int(text) if text.strip() else None


def _nonempty(text: str) -> str:
    if not text:
        raise ValueError("is empty")
    return text


def _one_of(names):
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"{text!r} is not one of {', '.join(names)}")
        return text
    return parse


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (0.0 < value < math.inf):
        raise ValueError(f"must be positive and finite, got {value}")
    return value


def _checked(field: str, parse) -> tuple:  # the key spec: parsed, checked by the field's rule, no default
    check = harness.CONFIG_CHECKS[field]
    return field, lambda text: check(parse(text)), None


_KERNELS = {"se": se_kernel, "matern52": matern52_kernel}
_REQUIRED = object()

# Each key is (the parameter its value is passed on as, its parser, its
# default): None leaves a key left out unpassed, so the parameter's own
# default holds; _REQUIRED marks a key with none; else it is config text.
# Each [dataset] source has the function that builds its data and its keys.
_SOURCES = {
    "toy": (datasets.gen_toy, {"seed": ("seed", int, None)}),
    "csv": (datasets.load_csv, {
        "path": ("path", _nonempty, _REQUIRED),
        "target": ("target_column", _nonempty, _REQUIRED),
        "test_fraction": ("test_fraction", float, None),
        "seed": ("seed", int, None),
    }),
    "series-csv": (datasets.load_series_csv, {"path": ("path", _nonempty, _REQUIRED)}),
    "grid": (structured.grid_dataset, {"g": ("G", int, "10"), "d": ("D", int, "2"), "seed": ("seed", int, None)}),
}
_SECTIONS = {
    "dataset": {"source": ("source", _one_of(_SOURCES), "toy")},  # and the source's keys
    "kernel": {  # sigma2 goes to harness.ExperimentConfig, the rest to _build_kernel
        "family": ("family", _one_of(_KERNELS), "se"),
        "metric": ("lam", lambda text: tuple(map(_positive_finite, text.replace(",", " ").split())), "1.0"),
        "theta_f": ("theta_f", _positive_finite, None),
        "sigma2": ("sigma2", _positive_finite, _REQUIRED),
    },
    "methods": {"list": _checked("methods", lambda text: [m.strip() for m in text.split(",") if m.strip()])},
    "schedule": {
        "steps": _checked("steps", _parse_steps),
        "fixed_m": _checked("fixed_m", _parse_optional_int),  # empty means None
        "kmcg_m": _checked("kmcg_m", _parse_optional_int),
        "repetitions": _checked("repetitions", int),
        "inducing_cap": _checked("inducing_cap", int),
        "seed": _checked("master_seed", int),
    },
    "output": {"path": ("path", _nonempty, "records.csv")},
}


def _read_keys(section: str, keys: dict, given: dict) -> dict:
    values = {}
    for key, (name, parse, default) in keys.items():
        text = given.get(key, default)
        if text is _REQUIRED:
            raise ValueError(f"[{section}] {key}: missing, and it has no default")
        try:
            if text is not None:
                values[name] = parse(text)
        except ValueError as error:
            raise ValueError(f"[{section}] {key}: {error}") from None
    return values


def _read_config(path) -> tuple:
    """The dataset source and each section's values by parameter, all checked before any work."""
    cfg = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    if not cfg.read(path):
        raise ValueError(f"cannot read config file {path}")
    for name in ("dataset", "kernel"):
        if not cfg.has_section(name):
            raise ValueError(f"{path} has no [{name}] section")
    for name in [cfg.default_section] * bool(cfg.defaults()) + cfg.sections():  # DEFAULT's keys reach every section
        if name not in _SECTIONS:
            raise ValueError(f"{path} has an unknown section [{name}]")
    values = {}
    for name, keys in _SECTIONS.items():
        given = dict(cfg[name]) if cfg.has_section(name) else {}
        reader = f"[{name}]"
        if name == "dataset":
            source = _read_keys(name, keys, given).pop("source")
            keys, reader = _SOURCES[source][1], f"[dataset] source {source}"
            given.pop("source", None)
        unread = [key for key in given if key not in keys]
        if unread:
            raise ValueError(f"{reader} does not read {', '.join(unread)}")
        values[name] = _read_keys(name, keys, given)
    return source, values


def _build_kernel(dim: int, family: str, lam: tuple, **theta_f) -> Kernel:
    if len(lam) not in (1, dim):
        raise ValueError(f"[kernel] metric: has {len(lam)} entries but the dataset has {dim} dimensions")
    return _KERNELS[family](np.full(dim, lam), **theta_f)


def _build_dataset(source: str, keys: dict, kernel: dict) -> datasets.Dataset:
    if source == "grid":  # its targets are drawn from the [kernel]
        structured.check_grid_size(keys["G"], keys["D"])  # before D sizes the kernel
        if kernel["family"] != "se":
            raise ValueError("the grid source draws its targets from an se kernel; [kernel] family must be se")
        keys = {**keys, "kernel": _build_kernel(keys["D"], **kernel)}
    return _SOURCES[source][0](**keys)


def _cmd_gen_toy(args) -> int:
    data = datasets.gen_toy(seed=args.seed, n_train=args.n_train, n_test=args.n_test)
    datasets.write_dataset_csv(data, args.out)
    print(f"wrote {data.n_train} train / {data.n_test} test rows to {args.out}")
    return 0


def _cmd_gen_grid(args) -> int:
    data = _build_dataset("grid", dict(G=args.g, D=args.d, seed=args.seed),
                          dict(family="se", lam=(args.metric,), theta_f=args.theta_f))
    datasets.write_dataset_csv(data, args.out)
    print(f"wrote {data.n_train} train / {data.n_test} test rows to {args.out}")
    return 0


def _cmd_run(args) -> int:
    source, values = _read_config(args.config)
    sigma2 = values["kernel"].pop("sigma2")
    data = _build_dataset(source, values["dataset"], values["kernel"])
    kernel = _build_kernel(data.dim, **values["kernel"])
    config = harness.ExperimentConfig(kernel=kernel, sigma2=sigma2, **values["methods"], **values["schedule"])
    output_path = values["output"]["path"]
    records = harness.run_experiment(config, data)
    harness.emit_csv(records, output_path)
    print(f"wrote {len(records)} records to {output_path}")
    return 0


def _cmd_metrics(args) -> int:
    records = harness.read_records_csv(args.records)
    methods = sorted({r.method for r in records})
    print(f"{'method':<14}{'step':>6}{'budget':>8}{'eps_f':>12}{'eps_var':>12}{'eps_ev':>12}{'smse':>12}")
    for method in methods:
        rows = [r for r in records if r.method == method and r.run in ("0", "mean")]
        if not rows:
            continue
        last = max(rows, key=lambda r: (r.step, r.run == "mean"))  # the mean row where there is one
        print(
            f"{method:<14}{last.step:>6}{last.budget:>8}"
            f"{last.eps_f:>12.3e}{last.eps_var:>12.3e}{last.eps_ev:>12.3e}{last.smse:>12.3e}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kernelcg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-toy", help="generate the 1-D toy dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-train", type=int, default=100)
    p.add_argument("--n-test", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_toy)

    p = sub.add_parser("gen-grid", help="generate a Kronecker-grid dataset")
    p.add_argument("--g", type=int, required=True, help="points per axis")
    p.add_argument("--d", type=int, required=True, help="number of axes")
    p.add_argument("--metric", type=float, default=1.0, help="per-dimension metric entry")
    p.add_argument("--theta-f", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_grid)

    p = sub.add_parser("run", help="run a benchmark experiment from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("metrics", help="summarize a records CSV")
    p.add_argument("--records", required=True)
    p.set_defaults(func=_cmd_metrics)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, configparser.Error) as error:  # config and data files
        raise SystemExit("error: " + " ".join(str(error).split())) from None


if __name__ == "__main__":
    sys.exit(main())
