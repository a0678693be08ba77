"""Budget-matched benchmark: every method against the exact oracle.

The harness evaluates the CG-based estimators at P steps and each
inducing-point baseline at M = ceil(sqrt(N P)) inducing inputs, repeating
the baselines over freshly drawn subsets, and emits an append-only CSV of
per-run records plus mean and progressive min/max aggregates. The same
thing is available from the command line:

    kernelcg gen-toy --seed 0 --out toy.csv
    kernelcg run --config config.ini
    kernelcg metrics --records records.csv
"""

import tempfile
from pathlib import Path

from kernelcg.datasets import TOY_DEFAULT_SIGMA2, gen_toy, toy_kernel
from kernelcg.harness import ExperimentConfig, emit_csv, read_records_csv, run_experiment

config = ExperimentConfig(
    kernel=toy_kernel(),
    sigma2=TOY_DEFAULT_SIGMA2,
    methods=("exact", "kmcg", "cg-reorth", "sor", "dtc", "fitc", "vfe", "pbr"),
    steps=(1, 2, 4, 7, 10),
    repetitions=5,
    master_seed=123,
)
data = gen_toy(seed=config.master_seed)
records = run_experiment(config, data)

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "records.csv"
    emit_csv(records, out)
    print(f"wrote {len(records)} records to {out}\n")
    back = read_records_csv(out)

print(f"{'method':<12} {'step':>5} {'budget':>7} {'eps_f':>11} {'eps_ev':>11} {'smse':>9}")
for r in back:
    if r.run in ("0", "mean") and r.step in (0, 4, 10):
        label = r.run if r.run == "mean" else "run0"
        print(f"{r.method:<12} {r.step:>5} {r.budget:>7} {r.eps_f:>11.2e} {r.eps_ev:>11.2e} "
              f"{r.smse:>9.3f}  {label}")

print("\nbaseline rows repeat over inducing draws; run=mean/min/max aggregate them")
print("rerunning with the same master seed reproduces this CSV except the seconds column")
