"""Per-layer spans around calls into the package, installed from outside it.

A target names a module of the package and an attribute path in it, such as
``("admissibility", "KernelSolution.from_b")``.  ``Tracer.install`` wraps a
module-level function in every module of the package that holds the same
object (``cli``, ``kernel`` and ``suites`` all import ``solve_admissibility``
by name), and wraps a method or classmethod on its class.  A target that a
later version of the package removes or renames is recorded as absent and
reads zero; the run goes on.

Spans are kept in memory as tuples and written out once, at the end.  A
span's self time is its duration minus the durations of its direct children;
calls are strictly nested because one thread makes every request.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

SETUP = -1  # request id of spans recorded during set-up and warm-up


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


@dataclass(frozen=True)
class Target:
    """One function to trace.

    span=False counts calls without timing them; it is used for tiny
    functions called thousands of times per request, where a span would
    cost more than the call.  work maps (args, result) to a work count,
    reported as ``<work_unit>_per_req``.
    """

    module: str
    path: str
    span: bool = True
    work: Callable | None = None
    work_unit: str = ""

    @property
    def name(self) -> str:
        # metric names must start with a letter: "_accel" reads "accel"
        return f"{self.module.lstrip('_')}.{self.path}"


TARGETS = (
    Target("admissibility", "solve_admissibility"),
    Target("admissibility", "assemble_system"),
    Target("admissibility", "KernelSolution.from_b"),
    Target("algebra", "AlgebraTable.mul_coeffs", span=False),
    Target("algebra", "AlgebraTable.right_mult_matrix", span=False),
    Target("algebra", "check_associative"),
    Target("kernel", "CauchyKernel.from_conditions"),
    Target("kernel", "closedness_residual"),
    Target("solutions", "AlgPolynomial.eval_batch",
           work=lambda args, out: _rows(args[1]), work_unit="points"),
    Target("solutions", "polynomial_solution_basis"),
    Target("verify", "sphere_quadrature",
           work=lambda args, out: _rows(out[0]), work_unit="nodes"),
    Target("verify", "boundary_reproduce"),
    Target("verify", "verify_representation"),
    Target("verify", "derivative_via_kernel"),
    Target("_accel", "boundary_accumulate",
           work=lambda args, out: _rows(args[0]), work_unit="nodes"),
    Target("_accel", "volume_accumulate",
           work=lambda args, out: _rows(args[0]), work_unit="nodes"),
    Target("suites", "run_suite"),
)


class NullTracer:
    """Stands in for Tracer when tracing is off; records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def request(self, rid: int):
        return contextlib.nullcontext()


class Tracer:
    """Records spans and call counts; one per traced process."""

    def __init__(self, package: str = "hypercauchy"):
        self.package = package
        self.spans: list[tuple] = []  # (id, parent, request, name, t0, t1, work)
        self.counts: Counter = Counter()  # (name, measured) -> calls
        self.work: Counter = Counter()  # (name, measured) -> work units
        self.absent: list[str] = []
        self.units: dict[str, str] = {}
        self._stack: list[int] = []
        self._request = SETUP

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its id."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self._request, name, t0, t1, 0)

    @contextlib.contextmanager
    def request(self, rid: int):
        self._request = rid
        try:
            with self.span("request"):
                yield
        finally:
            self._request = SETUP

    def _wrap(self, fn, target: Target):
        name = target.name
        tracer = self

        if not target.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[name, tracer._request != SETUP] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            measured = tracer._request != SETUP
            tracer.counts[name, measured] += 1
            with tracer.span(name) as sid:
                out = fn(*args, **kwargs)
            if target.work is not None:
                units = target.work(args, out)
                tracer.work[name, measured] += units
                tracer.spans[sid] = tracer.spans[sid][:6] + (units,)
            return out
        return traced

    # -- installing -----------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as absent."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None
                   and (key == self.package or key.startswith(self.package + "."))]
        for target in targets:
            self.units[target.name] = target.work_unit
            if not self._install_one(target, modules):
                self.absent.append(target.name)

    def _install_one(self, target: Target, modules) -> bool:
        module = sys.modules.get(f"{self.package}.{target.module}")
        if module is None:
            return False
        head, _, attr = target.path.rpartition(".")
        if head:
            owner = getattr(module, head, None)
            raw = None if owner is None else owner.__dict__.get(attr)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, target)))
                return True
            if callable(raw):
                setattr(owner, attr, self._wrap(raw, target))
                return True
            return False
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapped = self._wrap(original, target)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
        return True

    # -- summarising ----------------------------------------------------

    def summary(self, requests: int) -> dict:
        """Per-name totals over measured requests, plus set-up time.

        Returns {name: {"ms_per_req", "self_ms_per_req", "pct", "self_pct",
        "calls_per_req", "<unit>_per_req", "ms"}}: "pct" and "self_pct" are
        shares of the time spent in "request" spans, and "ms" is the time
        spent in set-up.
        """
        child_time: Counter = Counter()
        for s in self.spans:
            if s is not None and s[1] >= 0:
                child_time[s[1]] += s[5] - s[4]
        total: Counter = Counter()
        self_total: Counter = Counter()
        setup_total: Counter = Counter()
        for sid, _, rid, name, t0, t1, _ in (s for s in self.spans if s is not None):
            if rid == SETUP:
                setup_total[name] += t1 - t0
            else:
                total[name] += t1 - t0
                self_total[name] += t1 - t0 - child_time[sid]
        names = set(total) | set(setup_total) | {k[0] for k in self.counts} | set(self.units)
        per = max(requests, 1)
        busy = total["request"] or 1.0
        out = {}
        for name in sorted(names):
            row = {
                "ms_per_req": 1e3 * total[name] / per,
                "self_ms_per_req": 1e3 * self_total[name] / per,
                "pct": 100.0 * total[name] / busy,
                "self_pct": 100.0 * self_total[name] / busy,
                "calls_per_req": self.counts[name, True] / per,
                "ms": 1e3 * setup_total[name],
            }
            unit = self.units.get(name)
            if unit:
                row[f"{unit}_per_req"] = self.work[name, True] / per
            out[name] = row
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, request, name, t0, t1, work."""
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


def lookup(summary: dict, metric: str) -> float:
    """Value of a per-layer metric such as "verify.sphere_quadrature.nodes_per_req".

    The last dotted component names the statistic; the rest names the span.
    A span that never ran reads 0.
    """
    layer, _, stat = metric.rpartition(".")
    return float(summary.get(layer, {}).get(stat, 0.0))
