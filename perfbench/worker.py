"""One workload in its own process: set up, run whole rounds, check, report.

Started by run.py. It prints `READY <CLOCK_MONOTONIC time>` once imports, input generation and
warm-up are done, then (unless --setup-only) runs rounds of the workload's
operations until their summed time reaches --seconds, checks every output,
and prints one JSON line with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
KERNEL_REPS = 5  # timings of the machine-speed kernel, of which the median is printed


@dataclass
class Outcome:
    seconds: float
    completed: bool
    problem: str | None  # why the operation or its output is wrong, if it is


def run_op(op) -> Outcome:
    """Time one operation and check its output.

    An exception of the operation's expected type makes it a failed
    operation; any other exception, or a failed check, is a wrong result.
    """
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # the operation's failure is what is measured
        dt = time.perf_counter() - t0
        if op.expected_error is not None and isinstance(exc, op.expected_error):
            return Outcome(dt, False, None)
        return Outcome(dt, False, f"{op.name}: {type(exc).__name__}: {exc}")
    dt = time.perf_counter() - t0
    try:
        op.check(out)
    except Exception as exc:  # a crashing check is a wrong result too
        return Outcome(dt, True, f"{op.name}: {type(exc).__name__}: {exc}")
    return Outcome(dt, True, None)


def machine_kernel_s() -> float:
    """Median time of a fixed NumPy/SciPy task that calls no bilaplab code.

    300 Jacobi-preconditioned CG steps on a 96 x 96 Poisson matrix plus a
    256 x 256 dense product. Printed beside the metrics to show drift of
    the host's speed; no metric is divided by it.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    k = 96
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
    A = (sp.kron(T, sp.eye(k)) + sp.kron(sp.eye(k), T)).tocsr()
    b = np.ones(A.shape[0])
    M = spla.LinearOperator(A.shape, matvec=lambda x: x / 4.0)
    D = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        spla.cg(A, b, rtol=0.0, atol=0.0, maxiter=300, M=M)
        D @ D
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import bilaplab

    if not Path(bilaplab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bilaplab imported from {bilaplab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, workdir)
    try:
        wl.warm_up()
        print(f"READY {time.monotonic()!r}", flush=True)
        if args.setup_only:
            return 0

        restore = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            restore = spans.install(tracer)
        op_times, problems = [], []
        attempted = failed = 0
        timed = 0.0
        try:
            while True:
                for op in wl.ops:
                    if restore is not None:
                        tracer.op_id = attempted
                        root = tracer.open("op")
                    outcome = run_op(op)
                    if restore is not None:
                        tracer.close(root)
                    attempted += 1
                    timed += outcome.seconds
                    if outcome.completed:
                        op_times.append(outcome.seconds)
                    else:
                        failed += 1
                    if outcome.problem:
                        problems.append(outcome.problem)
                if timed >= args.seconds:
                    break
        finally:
            if restore is not None:
                restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            wl.final_check()
        except Exception as exc:  # a wrong result, reported below
            problems.append(f"{type(exc).__name__}: {exc}")

        result = {
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "op_times": op_times,
            "timed_s": timed,
            "peak_rss_mb": peak_rss_mb,
            "machine_kernel_s": machine_kernel_s(),
        }
        if args.trace:
            result["per_layer"] = tracer.layer_metrics()
            result["spans"] = len(tracer.start)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        wl.cleanup()
        if workdir.exists() and not any(workdir.iterdir()):
            workdir.rmdir()


if __name__ == "__main__":
    sys.exit(main())
