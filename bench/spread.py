"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 bench/spread.py --workload kmcg-trace --seeds 1-10 [--seconds 20]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound in BENCHMARK.json. The target is a spread below
a third of the bound; setup_s is reported but not held to it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a-b or a comma list")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in _seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} ops={result['attempted']} {line}", flush=True)
        if not result["correct"]:
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"{'metric':<12}{'median':>12}{'iqr/median':>12}{'bound':>8}  verdict")
    for entry in spec["end_to_end"]:
        vals = values[entry["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        verdict = "ok" if share < entry["bound"] / 3 else "WIDE"
        print(f"{entry['name']:<12}{med:>12.5g}{share:>12.4f}{entry['bound']:>8}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
