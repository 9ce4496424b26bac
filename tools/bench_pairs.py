"""Interleaved pairs of benchmark runs on two versions of the repository.

    python3 tools/bench_pairs.py --base HEAD~1 --change HEAD --pairs 10 \
        --workloads sweep-n1,pipeline-n1,verify-quick --out BENCH_topic.json

Each side is a `git archive` checkout of its revision in a directory of its
own; `--change WORKTREE` archives the tracked files of the working tree as
they stand (`git stash create`, which changes nothing in the repository).
Pair k (k = 1..N) runs, for each workload W,

    python3 perfbench/run.py --workload W --seed k --trace 0

once in each checkout with one BLAS thread, the base first when k is odd
and the change first when k is even, so a drift of the host's speed falls
on both sides alike. `--traced W` adds one traced run (`--trace 1`, seed 1)
of W per side after the pairs.

The output file holds every run, and per workload and metric the median
and quartiles of each side (statistics.quantiles, n=4, inclusive) and the
number of pairs in which the change is better. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = {"setup_s": "lower", "op_s": "lower", "ops_per_s": "higher",
           "peak_rss_mb": "lower"}
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
RUN_TIMEOUT_S = 600.0


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def resolve(rev: str) -> str:
    """The commit id of a revision; WORKTREE is the working tree's tracked files."""
    if rev == "WORKTREE":
        stash = _git("stash", "create").decode().strip()
        return stash or resolve("HEAD")
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def checkout(commit: str, into: Path) -> Path:
    """Unpack `git archive <commit>` into a new directory under `into`."""
    dest = into / commit[:12]
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit)), mode="r:") as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One `perfbench/run.py` run in `tree`: its result object and kernel time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=ENV, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode} "
                           "without a result line")
    result = json.loads(lines[-1])
    kernel = re.search(r"machine_kernel_s\s+([0-9.eE+-]+)", proc.stdout)
    run = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: m["value"] for k, m in result["metrics"].items()},
           "machine_kernel_s": float(kernel.group(1)) if kernel else None}
    if proc.returncode != 0:
        run["exit_code"] = proc.returncode
    return run


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(base_runs: list[dict], change_runs: list[dict], metrics: dict = METRICS) -> dict:
    """Per side the runs and their quartiles; per metric of `metrics` (name:
    "lower" or "higher", the better direction) the pairs the change wins."""
    out = {}
    for side, runs in (("parent", base_runs), ("change", change_runs)):
        out[side] = {"runs": runs}
        for metric in metrics:
            out[side][metric] = quartiles([r["metrics"][metric] for r in runs])
    wins = {}
    for metric, better in metrics.items():
        sign = 1.0 if better == "higher" else -1.0
        wins[metric] = sum(
            sign * (c["metrics"][metric] - b["metrics"][metric]) > 0.0
            for b, c in zip(base_runs, change_runs))
    out["change_wins"] = wins
    return out


def run_pairs(trees: dict, names: list[str], pairs: int, run) -> dict:
    """Pair k calls run(tree, name, k) once per side for each name, alternating
    the order; progress, and each run that failed, goes to stderr."""
    runs = {name: {"parent": [], "change": []} for name in names}
    t_start = time.monotonic()
    for k in range(1, pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for name in names:
            for side in order:
                result = run(trees[side], name, k)
                runs[name][side].append(result)
                print(f"[{time.monotonic() - t_start:7.0f} s] pair {k} {name} {side}: "
                      + " ".join(f"{m}={v:.4g}" for m, v in result["metrics"].items())
                      + "".join(f" {key}={result[key]}" for key in ("failed", "exit_code")
                                if key in result)
                      + ("" if result.get("correct", True) else " WRONG"),
                      file=sys.stderr, flush=True)
    return runs


def parser(doc: str) -> argparse.ArgumentParser:
    """The options every pairs runner takes: --base, --change, --pairs, --out."""
    ap = argparse.ArgumentParser(description=doc,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD~1", help="revision of the parent side")
    ap.add_argument("--change", default="HEAD",
                    help="revision of the change side, or WORKTREE")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    return ap


def parse(ap: argparse.ArgumentParser, argv) -> argparse.Namespace:
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    return args


@contextlib.contextmanager
def checkouts(args, workdir: Path | None = None):
    """(commits, trees) of the two sides of `args`, the trees unpacked under
    `workdir`, or under a temporary directory removed afterwards."""
    commits = {"parent": resolve(args.base), "change": resolve(args.change)}
    root = workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    root.mkdir(parents=True, exist_ok=True)
    try:
        yield commits, {side: checkout(commit, root / side) for side, commit in commits.items()}
    finally:
        if workdir is None:
            shutil.rmtree(root, ignore_errors=True)


def report_head(args, commits: dict, lines: list[str], command: str) -> dict:
    """The method, machine and pairs entries that open a report: the
    checkouts, the runner's own `lines`, the statistics, and `command`, the
    runner's command line up to --out."""
    return {
        "method": [
            f"Two checkouts made with `git archive`: parent {commits['parent']} "
            f"({args.base}) and change {commits['change']} ({args.change}).",
            *lines,
            f"Pair k, for k = 1..{args.pairs}, runs each of them once in each checkout, "
            "the parent first when k is odd and the change first when k is even.",
            "Medians and quartiles are statistics.quantiles(n=4, method='inclusive') over "
            "the runs of a side; change_wins counts the pairs in which the change is better "
            "(lower, or higher for ops_per_s).",
            f"Produced by `{command} --base {args.base} --change {args.change} "
            f"--pairs {args.pairs} --out {args.out.name}`.",
        ],
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "blas_threads": 1},
        "pairs": args.pairs,
    }


def main(argv=None) -> int:
    ap = parser(__doc__)
    ap.add_argument("--workloads", default="sweep-n1,pipeline-n1,verify-quick")
    ap.add_argument("--traced", default="", help="workloads to run once traced per side")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="where the checkouts go (default: a new temporary directory)")
    args = parse(ap, argv)

    workloads = [w for w in args.workloads.split(",") if w]
    traced = [w for w in args.traced.split(",") if w]
    with checkouts(args, args.workdir) as (commits, trees):
        runs = run_pairs(trees, workloads, args.pairs,
                         lambda tree, w, k: run_once(tree, w, k, 0))
        traced_runs = {w: {side: run_once(trees[side], w, 1, 1) for side in commits}
                       for w in traced}

    report = report_head(args, commits, [
        f"The workloads {', '.join(workloads)}, each run as `python3 perfbench/run.py "
        "--workload W --seed k --trace 0` with one BLAS thread."],
        f"python3 tools/bench_pairs.py --workloads {','.join(workloads)}"
        + (f" --traced {','.join(traced)}" if traced else ""))
    report["workloads"] = {w: summarize(runs[w]["parent"], runs[w]["change"])
                           for w in workloads}
    if traced:
        report["traced"] = traced_runs
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    all_correct = all(r["correct"] for w in runs.values() for side in w.values() for r in side)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
