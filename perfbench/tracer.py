"""Outside-in tracing of thirdopt's layers.

The tracer wraps public functions and methods of each ``thirdopt`` module at run
time, inside the benchmark's own process, and restores them afterwards; it never
edits the library's files.  A wrapped call records a span (name, start, end, the
span that caused it, the op it belongs to) in memory, and count hooks read work
counts off the call's arguments and result.

Module-level functions are re-bound in every ``thirdopt`` namespace that holds the
same object, so names imported with ``from .x import y`` are traced too.  A target
that does not exist (renamed or removed) is skipped and listed in ``absent``; its
metrics then read zero instead of crashing the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    module: str            # module under ``thirdopt``
    path: str              # "func" or "Class.method"
    name: object           # span name, or callable(args, kwargs) -> span name
    count: Optional[Callable] = None  # hook(counters, args, kwargs, result)


def _order(args, kwargs) -> int:
    return kwargs.get("order", args[2] if len(args) > 2 else 3)


def _count_points(counters, args, kwargs, result):
    counters["polynomials.values.points"] += len(result)


def _count_run(counters, args, kwargs, trace):
    counters["solver_iters"] += trace.iterations
    counters["escape.third_steps"] += len(trace.third_records())


def _count_draws(counters, args, kwargs, sample):
    counters["escape.sampler.draws"] += sample.draws


TARGETS = (
    Target("polynomials", "Polynomial.bundle",
           lambda a, k: f"polynomials.bundle.o{_order(a, k)}"),
    Target("polynomials", "Polynomial.value", "polynomials.value"),
    Target("polynomials", "Polynomial.values", "polynomials.values", _count_points),
    Target("polynomials", "smoothness_bounds", "polynomials.smoothness_bounds"),
    Target("tensors", "SymTensor3.__init__", "tensors.construct"),
    Target("tensors", "SymTensor3.transform", "tensors.transform"),
    Target("tensors", "SymTensor3.trilinear", "tensors.trilinear"),
    Target("spectral", "eig_sym", "spectral.eig_sym"),
    Target("cubic", "solve_cubic_model", "cubic.solve"),
    Target("escape", "minimize", "escape.minimize", _count_run),
    Target("escape", "escape_subspace", "escape.subspace"),
    Target("escape", "escape_subspace_from_eig", "escape.subspace"),
    Target("escape", "sample_direction", "escape.sampler", _count_draws),
    Target("conditions", "check_third_order", "conditions.check"),
    Target("conditions", "descent_witness", "conditions.witness"),
    Target("bench", "run_suite",
           lambda a, k: f"bench.{k.get('name', a[0] if a else '')}"),
    Target("bench", "grid_minimum_2d", "bench.grid_min"),
    Target("bench", "grid_minimum_1d", "bench.grid_min"),
)


class Tracer:
    """Spans and counts of wrapped calls; use as a context manager to install."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter, package: str = "thirdopt"):
        self.targets = targets
        self.clock = clock
        self.package = package
        self.spans = []          # [name, start, end, parent index, op]
        self.counters = Counter()
        self.absent = []
        self.op = None
        self._stack = []
        self._restore = []

    def wrap(self, fn, name, count=None):
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, self.clock(), None,
                    self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = self.clock()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == self.package
                                            or key.startswith(self.package + "."))]
        for t in self.targets:
            owner = sys.modules.get(f"{self.package}.{t.module}")
            parts = t.path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            fn = None if owner is None else vars(owner).get(attr)
            if fn is None:
                self.absent.append(f"{t.module}.{t.path}")
                continue
            wrapped = self.wrap(fn, t.name, t.count)
            holders = [owner] if len(parts) > 1 else [
                m for m in namespaces if any(v is fn for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._restore.append((holder, key, fn))
                        setattr(holder, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore = []

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct children.
        """
        out = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), inner in zip(self.spans, child):
            s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["incl_s"] += end - start
            s["self_s"] += end - start - inner
        return out
