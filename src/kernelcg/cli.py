"""Command-line entry points: gen-toy, gen-grid, run, metrics.

The `run` subcommand reads a plain-text key/value config with sections
(dataset, kernel, methods, schedule, output); see CONFIG_TEMPLATE for the
recognized keys and an example. The dataset and kernel sections are
required; an unknown section, or a key its section does not read, is an
error. A bad config or an unreadable or malformed file ends a command
with one "error:" line on stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import configparser
import sys

import numpy as np

from . import datasets, harness, structured
from .kernels import Kernel, matern52_kernel, se_kernel

CONFIG_TEMPLATE = """\
[dataset]
source = toy            ; toy | grid | csv | series-csv
seed = 0                ; toy, csv and grid (a key the source does not read is an error)
; csv only (a split column of train/test labels, as gen-toy and gen-grid
; write, fixes the split; otherwise rows are shuffled with seed):
; path = data.csv
; target = y
; test_fraction = 0.5
; series-csv only (columns time,value,mask; mask 1 = observed):
; path = series.csv
; grid only:
; g = 10
; d = 2

[kernel]
family = se             ; se | matern52
metric = 0.25           ; per-dimension entries, comma separated (broadcast if one)
theta_f = 2.0
sigma2 = 0.01

[methods]
list = exact, kmcg, cg-reorth, sor, dtc, fitc, vfe

[schedule]
steps = 1:10            ; inclusive range a:b, or a comma list
budget_rule = sqrt-np   ; sqrt-np | fixed-m
; fixed_m = 20
; kmcg_m =              ; empty means M = N
repetitions = 10
inducing_cap = 500
seed = 12345

[output]
path = records.csv
"""


def _parse_steps(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(t) for t in text.replace(",", " ").split())


def _parse_metric(text: str, dim: int) -> np.ndarray:
    values = [float(t) for t in text.replace(",", " ").split()]
    if len(values) == 1:
        return np.full(dim, values[0])
    if len(values) != dim:
        raise SystemExit(f"error: kernel metric has {len(values)} entries but the dataset has {dim} dimensions")
    return np.asarray(values)


# The [dataset] keys each source reads besides `source`.
_DATASET_KEYS = {
    "toy": ("seed",),
    "csv": ("path", "target", "test_fraction", "seed"),
    "series-csv": ("path",),
    "grid": ("g", "d", "seed"),
}


# The keys each section but [dataset] reads.
_SECTION_KEYS = {
    "kernel": ("family", "metric", "theta_f", "sigma2"),
    "methods": ("list",),
    "schedule": ("steps", "budget_rule", "fixed_m", "kmcg_m", "repetitions", "inducing_cap", "seed"),
    "output": ("path",),
}


def _build_dataset(cfg: configparser.ConfigParser):
    section = cfg["dataset"]
    source = section.get("source", "toy").strip()
    if source not in _DATASET_KEYS:
        raise SystemExit(f"error: unknown dataset source {source!r}")
    unread = [key for key in section if key != "source" and key not in _DATASET_KEYS[source]]
    if unread:
        raise SystemExit(f"error: [dataset] source {source} does not read {', '.join(unread)}")
    seed = section.getint("seed", 0)
    if source == "toy":
        return datasets.gen_toy(seed=seed)
    if source == "csv":
        return datasets.load_csv(
            section.get("path"),
            section.get("target"),
            section.getfloat("test_fraction", 0.5),
            seed=seed,
        )
    if source == "series-csv":
        times, values, mask = datasets.load_masked_series_csv(section.get("path"))
        return datasets.masked_series_dataset(times, values, mask)
    if source == "grid":
        g = section.getint("g", 10)
        d = section.getint("d", 2)
        structured.check_grid_size(g, d)  # before d sizes the kernel
        kcfg = cfg["kernel"]
        if kcfg.get("family", "se").strip() != "se":
            raise SystemExit("error: the grid source draws its targets from an se kernel; [kernel] family must be se")
        metric = _parse_metric(kcfg.get("metric", "1.0"), d)
        kernel = se_kernel(metric, kcfg.getfloat("theta_f", 1.0))
        return structured.grid_dataset(g, d, kernel, seed=seed)


def _build_kernel(cfg: configparser.ConfigParser, dim: int) -> Kernel:
    section = cfg["kernel"]
    family = section.get("family", "se").strip()
    metric = _parse_metric(section.get("metric", "1.0"), dim)
    theta_f = section.getfloat("theta_f", 1.0)
    if family == "se":
        return se_kernel(metric, theta_f)
    if family == "matern52":
        return matern52_kernel(metric, theta_f)
    raise SystemExit(f"error: unknown kernel family {family!r}")


def _cmd_gen_toy(args) -> int:
    data = datasets.gen_toy(seed=args.seed, n_train=args.n_train, n_test=args.n_test)
    datasets.write_dataset_csv(data, args.out)
    print(f"wrote {data.n_train} train / {data.n_test} test rows to {args.out}")
    return 0


def _cmd_gen_grid(args) -> int:
    structured.check_grid_size(args.g, args.d)  # before d sizes the kernel
    kernel = se_kernel(np.full(args.d, args.metric), args.theta_f)
    data = structured.grid_dataset(args.g, args.d, kernel, seed=args.seed)
    datasets.write_dataset_csv(data, args.out)
    print(f"wrote {data.n_train} train / {data.n_test} test rows to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = cfg.read(args.config)
    if not read:
        raise SystemExit(f"error: cannot read config file {args.config}")
    for name in ("dataset", "kernel"):
        if not cfg.has_section(name):
            raise SystemExit(f"error: {args.config} has no [{name}] section")
    if cfg.defaults():  # its keys would reach every section
        raise SystemExit(f"error: {args.config} has an unknown section [{cfg.default_section}]")
    for name in cfg.sections():
        if name == "dataset":
            continue  # its keys depend on the source; see _build_dataset
        if name not in _SECTION_KEYS:
            raise SystemExit(f"error: {args.config} has an unknown section [{name}]")
        unknown = [key for key in cfg[name] if key not in _SECTION_KEYS[name]]
        if unknown:
            raise SystemExit(f"error: [{name}] does not read {', '.join(unknown)}")
    data = _build_dataset(cfg)
    kernel = _build_kernel(cfg, data.dim)
    methods = tuple(
        m.strip() for m in cfg.get("methods", "list", fallback="exact, kmcg").split(",") if m.strip()
    )
    fixed_m = cfg.get("schedule", "fixed_m", fallback="").strip()
    kmcg_m = cfg.get("schedule", "kmcg_m", fallback="").strip()
    config = harness.ExperimentConfig(
        kernel=kernel,
        sigma2=cfg.getfloat("kernel", "sigma2", fallback=datasets.TOY_DEFAULT_SIGMA2),
        methods=methods,
        steps=_parse_steps(cfg.get("schedule", "steps", fallback="1:10")),
        budget_rule=cfg.get("schedule", "budget_rule", fallback=harness.SQRT_NP).strip(),
        fixed_m=int(fixed_m) if fixed_m else None,
        kmcg_m=int(kmcg_m) if kmcg_m else None,
        repetitions=cfg.getint("schedule", "repetitions", fallback=10),
        master_seed=cfg.getint("schedule", "seed", fallback=0),
        inducing_cap=cfg.getint("schedule", "inducing_cap", fallback=500),
    )
    output_path = cfg.get("output", "path", fallback="records.csv")
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
        last = max(rows, key=lambda r: r.step)
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
