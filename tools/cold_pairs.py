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
    bilaplab solve <asym-p2 at n = 2>    h = 1/16, the lattice with the
                                         heaviest set-up of a Newton solve

Each run records its wall time (`wall_s`, from the start of the process to
its end) and the peak resident size of the child (`peak_rss_mb`, its
`ru_maxrss` from `os.wait4`). The pairs loop, the checkouts, the options
and the report's header are `tools/bench_pairs.py`'s: the output file holds
every run, and per command and metric the median and quartiles of each side
and the number of pairs in which the change is lower. Progress goes to
stderr.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "src")]
from bench_pairs import (ENV, checkouts, parse, parser, report_head, run_pairs,  # noqa: E402
                         summarize)
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
    return out + [("solve-asym-p2-n2-h16", ["solve"], asym + "n = 2\nh = 0.0625\n")]


def run_once(tree: Path, args: list[str], config: str | None) -> dict:
    """One cold `python3 -m bilaplab.cli` process in `tree`: its wall time, peak
    resident size and exit code. A config is written, with its run directory,
    under a temporary directory that is removed afterwards."""
    with tempfile.TemporaryDirectory(prefix="cold-run-") as rundir:
        argv = [sys.executable, "-m", "bilaplab.cli", *args]
        if config is not None:
            cfg = Path(rundir) / "run.cfg"
            cfg.write_text(config + f"output = {Path(rundir) / 'out'}\n")
            argv.append(str(cfg))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=tree, env={**ENV, "PYTHONPATH": str(tree / "src")},
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"exit_code": proc.returncode,
            "metrics": {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}}


def main(argv=None) -> int:
    args = parse(parser(__doc__), argv)
    jobs = {name: (cli_args, config) for name, cli_args, config in commands()}
    with checkouts(args) as (commits, trees):
        runs = run_pairs(trees, list(jobs), args.pairs,
                         lambda tree, name, k: run_once(tree, *jobs[name]))
    report = report_head(args, commits, [
        "The commands " + ", ".join(jobs) + ", each run as a new `python3 -m bilaplab.cli` "
        "process with one BLAS thread.",
        "wall_s is the time from starting the process to its end; peak_rss_mb is "
        "the child's ru_maxrss from os.wait4, in MiB."], "python3 tools/cold_pairs.py")
    report["commands"] = {name: summarize(side["parent"], side["change"], METRICS)
                          for name, side in runs.items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["exit_code"] == 0 for c in runs.values() for side in c.values()
                    for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
