"""One process of one workload: set up, report ready, and in measure mode run
the closed loop (one client, next request after the previous one returns).

    python3 perfbench/worker.py --workload NAME --inputs FILE --mode setup|measure
        [--seconds S] [--trace-out FILE]

Prints "ready" once set-up and one warm-up request are done.  In measure
mode it then repeats the request pool in order until --seconds have passed
and at least MIN_SAMPLES requests were made, stopping only at the end of a
group of workloads.MIX_UNIT requests, and prints one JSON line with the raw
samples.  The package is imported from src/ of the checkout
that holds this file, never from elsewhere.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib
import importlib.util
import io
import json
import os
import platform
import re
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import workloads as W
from tracer import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SAMPLES = 100  # the p90 latency needs at least ten samples beyond it
MAX_LOOP_S = 140.0  # a run ends within 180 s even on a slow machine


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    program = importlib.import_module("hypercauchy")
    importlib.import_module("hypercauchy.cli")
    if not Path(program.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"hypercauchy imported from {program.__file__}, "
                         f"not from {SRC}")


# -- streams --------------------------------------------------------------------


class CliStream:
    """In-process CLI requests: click's main with standalone_mode=False, its
    output captured in two reused buffers.  Reusing them matters: click
    caches a wrapper per sys.stdout object and never frees it, so a fresh
    buffer per request (as CliRunner makes) grows the process by a few KB
    per request and ties peak memory to the request count."""

    def __init__(self, requests, check):
        self.cli = sys.modules["hypercauchy.cli"]
        self.check = check
        self.prepared = requests
        self.out, self.err = io.StringIO(), io.StringIO()

    def call(self, req, tracer):
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        code = 0
        with tracer.span("cli"), contextlib.redirect_stdout(self.out), \
                contextlib.redirect_stderr(self.err):
            try:
                self.cli.main.main(args=req["args"], prog_name="hypercauchy",
                                   standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # classified and counted, never fatal
                return None, exc
        return (code, self.out.getvalue(), self.err.getvalue()), None

    def classify(self, req, outcome):
        result, exc = outcome
        if exc is not None:
            return W.ERRORED, None, repr(exc)
        code, stdout, stderr = result
        cls, err = self.check(req, code, stdout, stderr)
        return cls, err, stderr.strip() if cls != W.OK else None


class LibraryStream:
    """verify_representation and derivative_via_kernel on the Fueter kernel."""

    def __init__(self, requests):
        fam = sys.modules["hypercauchy.families"]
        sol = sys.modules["hypercauchy.solutions"]
        kern = sys.modules["hypercauchy.kernel"]
        self.verify = sys.modules["hypercauchy.verify"]
        conditions = fam.fueter_conditions()
        self.kernel = kern.CauchyKernel.from_conditions(conditions)
        basis = sol.polynomial_solution_basis(conditions, 3)
        if len(basis) != W.FUETER_BASIS_DIM:
            raise SystemExit(f"Fueter basis of degree 3 has {len(basis)} elements, "
                             f"expected {W.FUETER_BASIS_DIM}")
        self.domain = self.verify.BallDomain(np.zeros(4), 1.0)
        table = conditions.table
        self.prepared = []
        for req in requests:
            if req["kind"] == "derivative":
                exps = np.vstack([g.exponents for g in basis])
                coeffs = np.vstack([w * g.coeffs for w, g in zip(req["weights"], basis)])
                f = sol.AlgPolynomial(table, exps, coeffs)
            else:
                f = sol.AlgPolynomial(table, req["exponents"], req["coeffs"])
            spec = self.verify.QuadratureSpec(nodes=req["nodes"])
            self.prepared.append((req, f, np.array(req["point"]), spec))

    def call(self, prep, tracer):
        req, f, x, spec = prep
        try:
            if req["kind"] == "derivative":
                return self.verify.derivative_via_kernel(
                    f, x, req["direction"], self.domain, self.kernel, spec), None
            return self.verify.verify_representation(
                f, x, self.domain, self.kernel, spec), None
        except Exception as exc:  # classified and counted, never fatal
            return None, exc

    def classify(self, prep, outcome):
        req, f, x, _ = prep
        report, exc = outcome
        if exc is not None:
            return W.classify_exception(exc), None, repr(exc)
        size = float(np.linalg.norm(f.coeffs))
        if req["kind"] == "derivative":
            exact = W.poly_partial(f.exponents, f.coeffs, x, req["direction"])
            err = float(np.linalg.norm(report.value.coeffs - exact) / size)
            if not report.estimate_check:
                return W.WRONG, err, "Cauchy estimate reported as violated"
            return W.classify_value(err, W.DERIVATIVE_BOUND), err, None
        exact = W.poly_value(req["exponents"], req["coeffs"], x)
        err = float(np.linalg.norm(report.computed.coeffs - exact) / size)
        return W.classify_value(err, W.REPRESENT_BOUND), err, None


def make_stream(workload, requests):
    if workload == "represent_derive":
        return LibraryStream(requests)
    if workload == "reproduce_fueter":
        return CliStream(requests, W.check_reproduce)
    return CliStream(requests, W.check_verdict)


# -- environment ------------------------------------------------------------------


def _blas_threads():
    maps = Path("/proc/self/maps").read_text() if Path("/proc/self/maps").exists() else ""
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        backend = importlib.import_module("hypercauchy._accel").backend()
    except (ImportError, AttributeError):
        backend = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "accel_backend": backend,
    }


def _cpu_ticks():
    """(steal, total) jiffies of the whole machine from /proc/stat, or None."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


# -- the loop ------------------------------------------------------------------------


def measure(stream, requests, unit: int, seconds: float, tracer) -> dict:
    latencies, classes, worst = [], Counter(), {}
    bad_inputs: dict[str, set] = {}
    messages: list[str] = []
    cpu = 0.0
    rid = 0
    ticks0 = _cpu_ticks()
    start = time.perf_counter()
    while True:
        k = rid % len(requests)
        req, prep = requests[k], stream.prepared[k]
        with tracer.request(rid):
            c0, t0 = time.process_time(), time.perf_counter()
            outcome = stream.call(prep, tracer)
            t1, c1 = time.perf_counter(), time.process_time()
        rid += 1
        latencies.append(t1 - t0)
        cpu += c1 - c0
        cls, err, note = stream.classify(prep, outcome)
        classes[cls] += 1
        kind = req["kind"]
        if err is not None:
            worst[kind] = max(worst.get(kind, 0.0), err)
        if cls != W.OK:
            bad_inputs.setdefault(cls, set()).add(k)
            if cls != W.REFUSED and len(messages) < 5:
                messages.append(f"{cls} {kind} #{k}: {note}")
        if rid % unit == 0:
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (rid >= MIN_SAMPLES or elapsed >= MAX_LOOP_S):
                break
    wall = time.perf_counter() - start
    ticks1 = _cpu_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = 100.0 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    return {
        "steal_pct": steal,
        "latencies_s": latencies,
        "cpu_s": cpu,
        "wall_s": wall,
        "passes": rid / len(requests),
        "pool": len(stream.prepared),
        "classes": {c: classes[c] for c in W.CLASSES},
        "bad_inputs": {c: len(v) for c, v in bad_inputs.items()},
        "worst_error": worst,
        "messages": messages,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(W.GENERATORS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", choices=["setup", "measure"], required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    requests = json.loads(Path(args.inputs).read_text())
    import_program()
    tracer = NullTracer()
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    stream = make_stream(args.workload, requests)
    stream.call(stream.prepared[0], tracer)  # warm-up, recorded as set-up
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    unit = W.MIX_UNIT[args.workload] or len(requests)
    result = measure(stream, requests, unit, args.seconds, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    if args.trace_out:
        result["layers"] = tracer.summary(len(result["latencies_s"]))
        result["absent"] = tracer.absent
        tracer.write(args.trace_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
