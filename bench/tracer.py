"""Outside-in tracer for the kernelcg package.

The tracer rebinds every public function of the package modules (and the
public methods of the classes they define) to a wrapper that records a span:
name, start, end, parent span, thread and op. Modules import names from one
another (``from .kernels import gram`` in exact, kmcg, lowrank, solvers,
structured, harness and datasets), so every binding of an original in every
``kernelcg`` namespace is replaced, and :meth:`Tracer.unwrapped` lists any
binding that still holds an original.

Operator products are spanned by giving the CG solvers an operator whose
``apply`` is wrapped, so every matrix-vector product a solve makes is one
``solvers.mvm`` span whatever the operator's structure. Counts of work
(Gram entries, CG steps and stop reasons, dropped directions, jittered
factors) are taken from the return values at the same boundaries.

Span stacks are kept per thread, since the harness runs baseline
repetitions on a thread pool; spans and counts are appended under a lock.
Spans are recorded only while an op is active, so checks that call the
program between ops do not show up in the per-op figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

LAYER_MODULES = (
    "kernels", "solvers", "structured", "linalg", "kmcg",
    "exact", "lowrank", "harness", "datasets", "cli",
)

# Functions whose spans are grouped under one layer name.
_GROUPS = {
    "kmcg.kmcg_fit": "kmcg.fit",
    "kmcg.kmcg_models_for_steps": "kmcg.fit",
    "kmcg.kmcg_mean": "kmcg.predict",
    "kmcg.kmcg_var": "kmcg.predict",
    "kmcg.kmcg_evidence": "kmcg.predict",
    "kmcg.kmcg_evidence_terms": "kmcg.predict",
    "exact.predict_mean": "exact.predict",
    "exact.predict_var": "exact.predict",
    "exact.predict_cov": "exact.predict",
    "exact.log_evidence": "exact.predict",
}


def layer_of(name: str) -> str:
    """Layer a span name belongs to, e.g. ``harness.metric_smse`` -> ``harness.metrics``."""
    if name in _GROUPS:
        return _GROUPS[name]
    if name.startswith("harness.metric_"):
        return "harness.metrics"
    return name


def _count_gram(counts, args, kwargs, out):
    counts["kernels.gram.entries"] += out.size


def _count_cg(prefix):
    def count(counts, args, kwargs, out):
        counts[f"{prefix}.steps"] += out.steps
        counts[f"{prefix}.stop_{out.reason}"] += 1
    return count


def _count_cholesky(counts, args, kwargs, out):
    counts["linalg.cholesky.jittered"] += int(out.jitter > 0.0)


def _count_truncation(counts, args, kwargs, out):
    counts["linalg.cholesky_with_truncation.dropped"] += len(args[0]) - out[1]


def _count_kmcg_fit(counts, args, kwargs, out):
    counts["kmcg.dropped"] += out.cg_steps - out.steps


def _count_kmcg_models(counts, args, kwargs, out):
    counts["kmcg.dropped"] += sum(m.cg_steps - m.steps for m in out.values())


_COUNTERS = {
    "kernels.gram": _count_gram,
    "solvers.cg_reorth": _count_cg("solvers.cg_reorth"),
    "solvers.cg_textbook": _count_cg("solvers.cg_textbook"),
    "linalg.cholesky": _count_cholesky,
    "linalg.cholesky_with_truncation": _count_truncation,
    "kmcg.kmcg_fit": _count_kmcg_fit,
    "kmcg.kmcg_models_for_steps": _count_kmcg_models,
}

# Work counts reported as zero when nothing incremented them.
STOP_REASONS = ("converged", "maxsteps", "breakdown")
WORK_COUNTS = (
    "kernels.gram.entries",
    "solvers.cg_reorth.steps",
    *(f"solvers.cg_reorth.stop_{r}" for r in STOP_REASONS),
    "linalg.cholesky.jittered",
    "linalg.cholesky_with_truncation.dropped",
    "kmcg.dropped",
)


class Tracer:
    """Records spans and counts for one process; see the module docstring."""

    def __init__(self, package: str = "kernelcg"):
        self.package = package
        self.spans: list[tuple] = []  # (id, parent, name, start, end, thread, op)
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op = None
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._bindings: list[tuple] = []  # (namespace, attribute, original)
        self._threads: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    def _span(self, name: str, fn, args, kwargs, count=None):
        op = self._op
        if op is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            thread = self._thread_index()
            with self._lock:
                self.spans.append((span_id, parent, name, start, end, thread, op))
                self.counts[f"{layer_of(name)}.calls"] += 1
        if count is not None:
            with self._lock:
                count(self.counts, args, kwargs, out)
        return out

    def _wrap(self, fn, name: str):
        count = _COUNTERS.get(name)
        tracer = self
        if name in ("solvers.cg_reorth", "solvers.cg_textbook"):
            from kernelcg.solvers import MvmOperator

            @functools.wraps(fn)
            def traced_cg(op, *args, **kwargs):
                apply = op.apply
                traced_op = MvmOperator(
                    dim=op.dim,
                    apply=lambda v: tracer._span("solvers.mvm", apply, (v,), {}),
                )
                return tracer._span(name, fn, (traced_op, *args), kwargs, count)

            return traced_cg

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._span(name, fn, args, kwargs, count)

        return traced

    # -- installation ------------------------------------------------------

    def _namespaces(self):
        """Every namespace of the package: modules and the classes they define."""
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            yield mod_name, module
            for attr, value in vars(module).items():
                if inspect.isclass(value) and value.__module__ == mod_name:
                    yield f"{mod_name}.{attr}", value

    def install(self) -> None:
        """Wrap every public function and method, then rebind every binding."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        for short in LAYER_MODULES:
            module = importlib.import_module(f"{self.package}.{short}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    self._register(value, f"{short}.{attr}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._register(fn, f"{short}.{attr}.{meth}")
        for where, namespace in self._namespaces():
            for attr, value in list(vars(namespace).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and self._originals[id(value)] is value:
                    self._bindings.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def _register(self, fn, name: str) -> None:
        if id(fn) not in self._wrappers:
            self._originals[id(fn)] = fn
            self._wrappers[id(fn)] = self._wrap(fn, name)

    def uninstall(self) -> None:
        """Restore every binding install() replaced."""
        for namespace, attr, original in reversed(self._bindings):
            setattr(namespace, attr, original)
        self._bindings = []

    def unwrapped(self) -> list[str]:
        """Bindings in any package namespace that still hold an original."""
        return [
            f"{where}.{attr}"
            for where, namespace in self._namespaces()
            for attr, value in vars(namespace).items()
            if id(value) in self._originals and self._originals[id(value)] is value
        ]

    def leftover_wrappers(self) -> list[str]:
        """Bindings that still hold a wrapper (expected empty after uninstall)."""
        wrappers = {id(w) for w in self._wrappers.values()}
        return [
            f"{where}.{attr}"
            for where, namespace in self._namespaces()
            for attr, value in vars(namespace).items()
            if id(value) in wrappers
        ]

    @property
    def wrapped_count(self) -> int:
        return len(self._wrappers)

    # -- ops and reports ---------------------------------------------------

    def begin_op(self, op: int) -> None:
        with self._lock:
            self.counts = Counter()
        self._op = op

    def end_op(self) -> Counter:
        self._op = None
        with self._lock:
            return Counter(self.counts)

    def op_layers(self, op: int) -> dict[str, dict]:
        """Per-layer calls, self time and total time of one op's spans.

        Self time is a span's duration minus the durations of its direct
        children, which run on the same thread.
        """
        spans = [s for s in self.spans if s[6] == op]
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _name, start, end, _thread, _op in spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for span_id, _parent, name, start, end, _thread, _op in spans:
            entry = layers[layer_of(name)]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[span_id]
            entry["total_s"] += end - start
        return dict(layers)
