"""Benchmark of the bilaplab package: three workloads, checked outputs, per-layer tracing.

    python3 perfbench/run.py --workload sweep-n1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a worker process of its own (worker.py), with one
BLAS thread, so its memory reading is its own. With --trace 0 the last line
of standard output is one JSON object with the end-to-end metrics setup_s,
op_s, ops_per_s and peak_rss_mb; with --trace 1 it holds the per-layer
metrics of a traced run.
setup_s is the median over seven fresh processes (six that only set up, and
the worker) of the time from process start to the first timed operation.
The exit code is 0 only when every output passed its checks. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# as in workloads.py, which the launcher does not import (it loads NumPy)
WORKLOADS = ("sweep-n1", "pipeline-n1", "verify-quick")
SETUP_PROBES = 6
# A workload, set-up probes included, is stopped after TIMEOUT_BASE_S plus
# TIMEOUT_PER_S per second of run length: 170 s at the run length of
# BENCHMARK.json, where a round of sweep-n1 takes 30-45 s.
TIMEOUT_BASE_S = 110.0
TIMEOUT_PER_S = 3.0
# One BLAS thread: on a 2-core host a second OpenBLAS thread doubled the
# CPU time of verify-quick without lowering its wall time.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run worker.py; return seconds from its start to READY and its later lines.

    The worker stamps READY with CLOCK_MONOTONIC, the clock time.monotonic()
    reads in every process of the machine.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker {' '.join(args)} ran out of time") from None
    lines = out.splitlines()
    ready = [k for k, line in enumerate(lines) if line.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}")
    return float(lines[ready[0]].split()[1]) - t0, lines[ready[0] + 1:]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; the result object of the benchmark's last line."""
    deadline = time.monotonic() + TIMEOUT_BASE_S + TIMEOUT_PER_S * seconds
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker(base + ["--setup-only"], deadline)[0])
    ready, lines = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)],
                           deadline)
    setups.append(ready)
    raw = json.loads(lines[-1])
    for problem in raw["problems"]:
        print(f"{name}: WRONG: {problem}")
    times = raw["op_times"]
    if trace:
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in raw["per_layer"].items()}
        metrics["config.artifact_bytes"]["unit"] = "bytes"
        metrics["trace.op_s"] = {"value": statistics.median(times) if times else 0.0,
                                 "unit": "s"}
        metrics["trace.spans"] = {"value": raw["spans"], "unit": "count"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(times) if times else 0.0, "unit": "s"},
            "ops_per_s": {"value": len(times) / raw["timed_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{name} seed={seed}: {raw['attempted']} operations attempted, "
          f"{raw['failed']} failed, {len(raw['problems'])} wrong")
    for key, m in metrics.items():
        print(f"  {key:28s} {m['value']:.6g} {m['unit']}")
    print(f"  machine_kernel_s             {raw['machine_kernel_s']:.6g} s "
          "(fixed NumPy/SciPy task, not bilaplab)")
    return {"correct": not raw["problems"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bilaplab" / "__init__.py").is_file():
        print(f"error: no bilaplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            if args.workload == "all":
                print(json.dumps({name: results[name]}))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
