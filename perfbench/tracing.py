"""Span tracing of extctrl from outside the program.

``install`` wraps every public function of each layer module, plus the
``Dataset`` constructor, accessors and properties and ``RunArtifacts.write``,
and rebinds each wrapped function at its definition site and at every
``from .x import y`` site inside the package, so calls made by ``plan`` and
``cli`` are traced too. A span records name, start, end, parent span and
operation index; spans are kept in memory and written out by ``dump``.
Outside an operation the wrappers call straight through, so the benchmark's
own output checks are never traced.

``summarize`` turns spans into per-operation figures: self time (a span's
duration minus the durations of its child spans) per function and per layer,
call counts, and the counters recorded at some boundaries. The root span of
each operation keeps the time not covered by any wrapped call, reported as
``unattributed``; by construction, layer self times plus ``unattributed``
add up to the traced operation time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# The modules under src/extctrl that hold code. `errors` defines no
# functions; `borrow` is a microsecond closed form no workload calls.
LAYERS = (
    "cli", "plan", "dataset", "inference", "glm", "propensity", "balancing",
    "diagnostics", "estimators", "maic", "stc", "simulate",
)

ROOT = "op"


def _dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _bootstrap_counts(args, kwargs, out) -> dict:
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"replicates": config.replicates, "failed_replicates": out.n_failures}


# Counters recorded when a call returns, keyed by span name.
COUNTERS = {
    "dataset.load_dataset": lambda a, k, out: {"rows": len(out)},
    "glm.fit_logistic": lambda a, k, out: {"iters": out.iterations},
    "maic.maic_weights": lambda a, k, out: {"iters": out.iterations},
    "estimators.weighted_km": lambda a, k, out: {"event_times": len(out.times)},
    "inference.bootstrap_ci": _bootstrap_counts,
    # Each plan writes into a directory of its own, so its size is what
    # this call wrote.
    "plan.write": lambda a, k, out: {"bytes": _dir_bytes(a[1] if len(a) > 1 else k["out_dir"])},
}


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        # Each span: [name, start, end, parent index, operation index, counters]
        self.spans = []
        self._stack = []
        self._op = -1

    @contextmanager
    def operation(self, index: int):
        """Root span of one operation; wrapped calls inside become its children."""
        self._op = index
        rec = [ROOT, perf_counter(), 0.0, -1, index, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = perf_counter()

    def wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1], self._op, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and methods with ``tracer`` spans."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"extctrl.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for name, mod in list(sys.modules.items()):
        if name == "extctrl" or name.startswith("extctrl."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    dataset = sys.modules["extctrl.dataset"]
    _wrap_methods(tracer, "dataset", dataset.Dataset)
    dataset.Dataset.__init__ = tracer.wrap("dataset.Dataset", dataset.Dataset.__init__)
    _wrap_methods(tracer, "plan", sys.modules["extctrl.plan"].RunArtifacts)


def _wrap_methods(tracer: Tracer, layer: str, cls) -> None:
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if inspect.isfunction(obj):
            setattr(cls, attr, tracer.wrap(f"{layer}.{attr}", obj))
        elif isinstance(obj, property):
            setattr(cls, attr, property(tracer.wrap(f"{layer}.{attr}", obj.fget)))


def summarize(spans) -> dict:
    """Per-operation means of self time, calls and counters, by span and layer."""
    ops = sum(1 for s in spans if s[0] == ROOT)
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        key = "unattributed" if name == ROOT else name
        total[f"{key}.s"] += end - start - child[i]
        total[f"{key}.calls"] += 1
        total[f"{key}.incl_s"] += end - start
        if key != "unattributed":
            total[f"layer.{key.split('.')[0]}.s"] += end - start - child[i]
            total[f"layer.{key.split('.')[0]}.calls"] += 1
        for k, v in (counts or {}).items():
            total[f"{key}.{k}"] += v
    out = {k: v / ops for k, v in total.items()}
    out["trace.op_s"] = out.pop("unattributed.incl_s")
    out["trace.ops"] = ops
    return out
