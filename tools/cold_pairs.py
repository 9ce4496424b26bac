"""Interleaved pairs of cold command-line processes on two versions of the repository.

    python3 tools/cold_pairs.py --base HEAD~1 --change HEAD --pairs 10 --out BENCH_topic.json

Each side is a `git archive` checkout of its revision (see
`tools/bench_pairs.py`; `--change WORKTREE` takes the tracked files of the
working tree as they stand). Pair k (k = 1..N) runs each command of
`commands()` once in each checkout, every run a new process with one BLAS
thread, the base first when k is odd and the change first when k is even:

    bilaplab verify --level quick
    bilaplab diagnose <asym-p2 at h>     h = 1/32, 1/64, 1/128
    bilaplab blowup <asym-p2 at h>       h = 1/32, 1/64, 1/128

Each run records its wall time (`wall_s`, from the start of the process to
its end) and the peak resident size of the child (`peak_rss_mb`, its
`ru_maxrss` from `os.wait4`). The output file holds every run, and per
command and metric the median and quartiles of each side and the number of
pairs in which the change is lower, as `tools/bench_pairs.py` summarizes its
workloads. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "src")]
from bench_pairs import ENV, checkout, resolve, summarize  # noqa: E402
from bilaplab.verify import CORPUS  # noqa: E402

METRICS = {"wall_s": "lower", "peak_rss_mb": "lower"}
H_INV = (32, 64, 128)


def commands() -> list[tuple[str, list[str], str | None]]:
    """(name, arguments of `bilaplab`, config text or None) of every command."""
    asym = "".join(f"{k} = {v}\n" for k, v in CORPUS["asym-p2"].items())
    out = [("verify-quick", ["verify", "--level", "quick"], None)]
    for command in ("diagnose", "blowup"):
        for h_inv in H_INV:
            out.append((f"{command}-asym-p2-h{h_inv}", [command], asym + f"h = {1 / h_inv!r}\n"))
    return out


def run_once(tree: Path, args: list[str], config: str | None, rundir: Path) -> dict:
    """One cold `python3 -m bilaplab.cli` process in `tree`: its wall time, peak
    resident size and exit code. A config is written under `rundir`, with its
    run directory, which is removed afterwards."""
    argv = [sys.executable, "-m", "bilaplab.cli", *args]
    if config is not None:
        rundir.mkdir(parents=True)
        cfg = rundir / "run.cfg"
        cfg.write_text(config + f"output = {rundir / 'out'}\n")
        argv.append(str(cfg))
    env = {**ENV, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    shutil.rmtree(rundir, ignore_errors=True)
    return {"exit_code": proc.returncode,
            "metrics": {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}}


def run_pairs(trees: dict, pairs: int, rundir: Path) -> dict:
    """Pair k runs each command once per side, alternating the order."""
    runs = {name: {"parent": [], "change": []} for name, _, _ in commands()}
    t_start = time.monotonic()
    for k in range(1, pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for name, args, config in commands():
            for side in order:
                run = run_once(trees[side], args, config, rundir / f"{side}-{name}-{k}")
                runs[name][side].append(run)
                print(f"[{time.monotonic() - t_start:7.0f} s] pair {k} {name} {side}: "
                      + " ".join(f"{m}={v:.4g}" for m, v in run["metrics"].items())
                      + f" exit={run['exit_code']}", file=sys.stderr, flush=True)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD~1", help="revision of the parent side")
    ap.add_argument("--change", default="HEAD",
                    help="revision of the change side, or WORKTREE")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")

    commits = {"parent": resolve(args.base), "change": resolve(args.change)}
    workdir = Path(tempfile.mkdtemp(prefix="cold-pairs-"))
    try:
        trees = {side: checkout(commit, workdir / side) for side, commit in commits.items()}
        runs = run_pairs(trees, args.pairs, workdir / "runs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "method": [
            f"Two checkouts made with `git archive`: parent {commits['parent']} "
            f"({args.base}) and change {commits['change']} ({args.change}); "
            "each run a new `python3 -m bilaplab.cli` process with one BLAS thread.",
            f"Pair k, for k = 1..{args.pairs} and each command: one run in each "
            "checkout, the parent first when k is odd and the change first when k is even.",
            "wall_s is the time from starting the process to its end; peak_rss_mb is "
            "the child's ru_maxrss from os.wait4, in MiB.",
            "Medians and quartiles are statistics.quantiles(n=4, method='inclusive') over "
            "the runs of a side; change_wins counts the pairs in which the change is lower.",
            f"Produced by `python3 tools/cold_pairs.py --base {args.base} --change "
            f"{args.change} --pairs {args.pairs} --out {args.out.name}`.",
        ],
        "machine": {"system": platform.system(), "machine": platform.machine(),
                    "cpus": os.cpu_count(), "python": platform.python_version(),
                    "blas_threads": 1},
        "pairs": args.pairs,
        "commands": {name: summarize(side["parent"], side["change"], METRICS)
                     for name, side in runs.items()},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["exit_code"] == 0 for c in runs.values() for side in c.values()
                    for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
