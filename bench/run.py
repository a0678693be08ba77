"""kernelcg benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload harness-dense --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run times ops with tracing off and prints every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced ops and prints every per-layer metric, including the
tracing overhead. Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Full results, and with ``--trace 1`` every span, go to ``bench/out/``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPS = 3  # setup_s is the median of this many in-process set-ups
MIN_OPS = 3  # timed ops per untraced run, even past --seconds
MIN_TRACE_PAIRS = 2  # untraced/traced op pairs per traced run


def _import_program():
    """Import kernelcg from this checkout's src/, or exit with status 1 and no result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import kernelcg
    except ImportError as error:
        sys.exit(f"error: cannot import kernelcg from {ROOT / 'src'}: {error}")
    if Path(kernelcg.__file__).resolve().parent != ROOT / "src" / "kernelcg":
        sys.exit(f"error: kernelcg imported from {kernelcg.__file__}, not from {ROOT / 'src'}")


def _openblas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if unknown."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "KERNELCG_THREADS": os.environ.get("KERNELCG_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, as (pct, value)."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 11  # zero-based; ten samples lie above this one
    return 100.0 * rank / (n - 1), sorted(samples)[rank]


class Run:
    """One benchmark run: ops, their checks, and the failure count."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.run_gates_ok = True
        self.invariant = None
        self.accuracy = None

    def op(self, timed_call=None):
        """Run, time and check one op.

        Returns (wall seconds, Checked, raw result), with a Checked of None
        when the op or its check raised. Every op that fails counts in
        ``failed``; one whose checks merely fail keeps its measurements.
        """
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = (timed_call or self.workload.op)()
            wall = time.perf_counter() - start
        except Exception:
            self._fail(f"op {self.attempted}: exception\n{traceback.format_exc()}")
            return None, None, None
        try:
            checked = self.workload.check(result)
        except Exception:
            self._fail(f"op {self.attempted}: check raised\n{traceback.format_exc()}")
            return wall, None, result
        problems = list(checked.problems)
        if self.invariant is None:
            self.invariant = checked.invariant
            self.accuracy = checked.accuracy
        elif checked.invariant != self.invariant:
            problems.append("invariant counts differ from the first op's")
        if problems:
            self._fail(f"op {self.attempted}: " + "; ".join(problems))
        return wall, checked, result

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)

    def gate(self, message: str) -> None:
        """A failed check of the run as a whole rather than of one op."""
        self.run_gates_ok = False
        self.problems.append(message)
        print(f"FAIL {message}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.run_gates_ok


def _measure(workload, seconds: float) -> tuple[Run, dict, dict]:
    """Untraced run: set-ups, the peak-memory pass, then timed ops."""
    from workloads import time_predict

    run = Run(workload)
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    if hasattr(workload, "check_oracle"):
        for problem in workload.check_oracle():
            run.gate(problem)

    # Peak-memory pass: one op under tracemalloc, outside the timed ops. It
    # also warms caches for the timed ops.
    tracemalloc.start()
    run.op()
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    limit = getattr(workload, "PEAK_LIMIT_BYTES", None)
    if limit is not None and peak_bytes > limit:
        run.gate(f"peak {peak_bytes / 2**20:.0f} MiB exceeds {limit / 2**20:.0f} MiB")

    walls, predicts = [], []
    deadline = time.perf_counter() + seconds
    timed = 0
    while timed < MIN_OPS or time.perf_counter() < deadline:
        timed += 1
        wall, checked, result = run.op()
        if checked is None:
            continue
        walls.append(wall)
        if checked.predict_s is not None:
            predicts.append(checked.predict_s)
        # Extra predict samples between ops, outside the op's wall time, so
        # they spread over the run as the ops do.
        for _ in range(workload.PREDICT_EXTRA):
            try:
                predicts.append(time_predict(*workload.predict_model(result)))
            except Exception:
                run.gate(f"predict after op {run.attempted}: exception\n{traceback.format_exc()}")
                break
    if not walls or not predicts:
        raise SystemExit("error: no op completed to measure")

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "predict_ms": (1e3 * statistics.median(predicts), "ms"),
        "peak_mib": (peak_bytes / 2**20, "MiB"),
    }
    info = {
        "setup_samples_s": setup_times,
        "wall_samples_s": walls,
        "wall_tail": _tail(walls),
        "predict_samples_ms": [1e3 * p for p in predicts],
        "fail_frac": run.failed / run.attempted,
        "accuracy": run.accuracy,
    }
    return run, metrics, info


def _measure_traced(workload, seconds: float) -> tuple[Run, dict, dict]:
    """Traced run: untraced and traced ops alternate; per-layer figures per op."""
    from tracer import WORK_COUNTS, Tracer

    run = Run(workload)
    workload.setup()
    run.op()  # warm-up, untraced
    tracer = Tracer()
    untraced, traced, layers, counts = [], [], [], []
    unwrapped: set[str] = set()
    deadline = time.perf_counter() + seconds
    op_id = 0
    while op_id < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        wall, _, _ = run.op()
        if wall is not None:
            untraced.append(wall)
        tracer.install()
        missed = tracer.unwrapped()
        unwrapped.update(missed)
        if missed:
            run.gate(f"tracer left originals bound: {missed}")
        op_id += 1
        op_counts = []

        def traced_op():
            # The tracer records the op alone, not the checks that follow it.
            tracer.begin_op(op_id)
            try:
                return tracer._span("bench.op", workload.op, (), {})
            finally:
                op_counts.append(tracer.end_op())

        wall, _, _ = run.op(traced_op)
        tracer.uninstall()
        leftover = tracer.leftover_wrappers()
        if leftover:
            run.gate(f"tracer left wrappers bound: {leftover}")
        if wall is not None:
            traced.append(wall)
            layers.append(tracer.op_layers(op_id))
            counts.append(op_counts[0])
            if counts[-1] != counts[0]:
                run.gate(f"traced op {op_id}: counts differ from the first traced op's")
    if not traced or not untraced:
        raise SystemExit("error: no op completed to trace")

    names = sorted({name for per_op in layers for name in per_op})
    table = {}
    for name in names:
        table[name] = {
            "calls": layers[0].get(name, {}).get("calls", 0),
            "self_s": statistics.median(op.get(name, {}).get("self_s", 0.0) for op in layers),
            "total_s": statistics.median(op.get(name, {}).get("total_s", 0.0) for op in layers),
        }
    metrics = {}
    for name, row in table.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for key in WORK_COUNTS:
        metrics[key] = (counts[0].get(key, 0), "count")
    lowrank_calls = sum(row["calls"] for name, row in table.items() if name.startswith("lowrank."))
    metrics["lowrank.calls"] = (lowrank_calls, "count")
    metrics["trace.spans"] = (sum(row["calls"] for row in table.values()), "count")
    metrics["trace.wrapped"] = (tracer.wrapped_count, "count")
    metrics["trace.unwrapped"] = (len(unwrapped), "count")
    metrics["trace.op_wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0), "%")
    info = {
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "layers": table,
        "spans": tracer.spans,
    }
    return run, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            run, measured, info = _measure_traced(workload, args.seconds)
            wanted = spec["per_layer"]
        else:
            run, measured, info = _measure(workload, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment()
    if env["blas_threads"] not in (1, None):
        run.gate(f"BLAS runs {env['blas_threads']} threads, expected 1")

    metrics = {}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    for entry in wanted:
        name = entry["name"]
        # A layer the workload never calls has no spans: zero calls.
        value, unit = measured.get(name, (0, "count") if name.endswith(".calls") else (None, None))
        if value is None:
            raise SystemExit(f"error: metric {name} is not measured on {args.workload}")
        if unit != entry["unit"]:
            raise SystemExit(f"error: metric {name} measured in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<44} {value:>14.6g} {unit}")
    if args.trace:
        print("# every layer, per traced op (median self/total seconds):")
        for name, row in sorted(info["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {name:<44} calls {row['calls']:>7}  self {row['self_s']:>10.6f} s"
                  f"  total {row['total_s']:>10.6f} s")
    else:
        tail = info["wall_tail"]
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail
                     else "none (needs at least 11 ops)")
        print(f"# wall_s samples n={len(info['wall_samples_s'])}; highest percentile with "
              f">=10 samples beyond it: {tail_text}")
        print(f"# fail_frac {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
        for key, value in sorted((run.accuracy or {}).items()):
            print(f"# {key} {value:.6g} (accuracy, op 1; checked by gates, not bounded)")

    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "result": result, "problems": run.problems}
    spans = info.pop("spans", None)
    report["info"] = info
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w") as handle:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "thread", "op"],
                       "spans": spans}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
