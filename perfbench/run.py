"""The hypercauchy benchmark: three request streams timed end to end and,
with --trace 1, layer by layer.

    python3 perfbench/run.py --workload reproduce_fueter --seed 1 --seconds 40 --trace 0

Run from any directory; the checkout is the parent of this file's directory
and the package is imported from its src/.  Inputs are made from --seed
before any timing.  The workload runs in a fresh process, one client in a
closed loop; set-up is timed in SETUP_RUNS extra fresh processes and in the
measuring one, and reported as the median.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1).  The run exits 1 when any result is wrong
or errored, and without a result when the program cannot be started.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as W
from tracer import lookup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3  # plus the measuring process: the median of four set-up times
RUN_TIMEOUT_S = 170.0


class WorkerFailed(Exception):
    pass


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def run_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start one worker; return (seconds until it reported ready, its last line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-u", str(HERE / "worker.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise WorkerFailed(f"worker {' '.join(args[:4])} exited with code {code}")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def end_to_end(result: dict, setup_s: float) -> dict:
    lat_ms = [1e3 * v for v in result["latencies_s"]]
    n = len(lat_ms)
    return {
        "throughput_rps": n / result["wall_s"],
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "cpu_ms_per_req": 1e3 * result["cpu_s"] / n,
        "ok_ratio": result["classes"][W.OK] / n,
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, names, setup_s: float) -> dict:
    """Per-layer metrics.  Layer times are shares of the traced request time
    (request.ms_per_req), so a layer that a workload never reaches reads 0%
    rather than a time of 0; "setup_pct" is a share of the set-up time.
    traced.throughput_rps against the untraced throughput_rps is the cost of
    tracing."""
    out = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        if name == "traced.throughput_rps":
            out[name] = len(result["latencies_s"]) / result["wall_s"]
        elif stat == "setup_pct":
            out[name] = lookup(result["layers"], f"{layer}.ms") / (10.0 * setup_s)
        else:
            out[name] = lookup(result["layers"], name)
    return out


def report(workload: str, seed: int, result: dict, setups: list[float], trace: bool):
    n = len(result["latencies_s"])
    c = result["classes"]
    failures = c[W.REFUSED] + c[W.WRONG] + c[W.ERRORED]
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {n} requests in "
          f"{result['wall_s']:.2f} s ({result['passes']:.2f} passes over a pool of "
          f"{result['pool']}), one client, closed loop")
    print("classes: " + ", ".join(f"{k} {c[k]}" for k in W.CLASSES)
          + f"; fail_ratio {failures / n:.4f} (refused+wrong+errored)/attempted")
    for cls, count in sorted(result["bad_inputs"].items()):
        print(f"  {cls}: {count} distinct inputs of the pool of {result['pool']}")
    for kind, err in sorted(result["worst_error"].items()):
        print(f"worst error {kind}: {err:.3e}")
    for msg in result["messages"]:
        print(f"  {msg}")
    print(f"set-up times (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"latency samples {n}, beyond p90 {samples_beyond(n, 90)}")
    if result["steal_pct"] is not None:
        print(f"cpu time stolen by the hypervisor during the loop: {result['steal_pct']:.2f}%")
    print("env: " + json.dumps(result["env"], sort_keys=True))
    if trace:
        if result["absent"]:
            print("absent from the program (read as 0): " + ", ".join(result["absent"]))
        layers = result["layers"]
        req_ms = layers.get("request", {}).get("ms_per_req", 0.0)
        print(f"traced request time {req_ms:.3f} ms/req; self time by span:")
        rows = sorted(((v["self_ms_per_req"], k) for k, v in layers.items()
                       if v["self_ms_per_req"] > 0), reverse=True)
        for self_ms, name in rows:
            row = layers[name]
            print(f"  {name:40s} self {self_ms:9.3f} ms ({row['self_pct']:5.1f}%)  "
                  f"total {row['ms_per_req']:9.3f} ms ({row['pct']:5.1f}%)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(W.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "hypercauchy" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'hypercauchy'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = work / "inputs.json"
        inputs.write_text(json.dumps(W.generate(args.workload, args.seed, work)))
        base = ["--workload", args.workload, "--inputs", str(inputs)]
        setups = [run_worker(base + ["--mode", "setup"], deadline)[0]
                  for _ in range(SETUP_RUNS)]
        measure = base + ["--mode", "measure", "--seconds", str(args.seconds)]
        if args.trace:
            trace_out = out_dir / f"trace-{args.workload}-s{args.seed}.jsonl"
            measure += ["--trace-out", str(trace_out)]
        ready, line = run_worker(measure, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(ready)
    result = json.loads(line)

    report(args.workload, args.seed, result, setups, bool(args.trace))
    if args.trace:
        metrics = per_layer(result, [m["name"] for m in spec["per_layer"]], ready)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(result, statistics.median(setups))
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    classes = result["classes"]
    failed = classes[W.WRONG] + classes[W.ERRORED]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["latencies_s"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
