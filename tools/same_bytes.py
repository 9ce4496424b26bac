"""Run the CLI on fixed configs in two versions of the repository and compare every file.

    python3 tools/same_bytes.py --base HEAD --change WORKTREE

Each side is a `git archive` checkout of its revision (see
`tools/bench_pairs.py`; `--change WORKTREE` takes the tracked files of the
working tree as they stand). In each checkout one process runs, with one
BLAS thread,

    bilaplab solve|diagnose|blowup   on the six `pipeline-n1` configs of
                                     perfbench/workloads.py at h = 1/16 and 1/32
    bilaplab diagnose                on the same configs at h = 1/32 with
                                     explicit centers and radii
    bilaplab solve|diagnose          at n = 2, h = 1/8, on the configs whose
                                     datum is defined at n = 2
    bilaplab diagnose                at n = 2, h = 1/16 on sym-p2 and asym-p2,
                                     the lattice where `fill_extension`'s
                                     plans fill the most cells
    run(parse_config(text))          all three stages on the same six configs
                                     at h = 1/32 (the profile stage reuses the
                                     analyzed points' profiles; no command
                                     runs all three), and on the cases of
                                     `EXTRA_RUNS`

and writes each run's artifacts, plus the exit code of every run in
`exit_codes.json`. Then each command of `TRANSCRIPTS` runs in a process of
its own: `bilaplab verify --level quick` and `--level full`, `bilaplab
extension-check` with its defaults and with `--modes 1,2,3,5,8 --height 16`,
the three demos (`free_boundary_tour.py` profiles and analyzes points at
h = 1/64, which no run above reaches), and `ORACLE`, which prints the
brute-force oracle's energy, step count, sup|grad J| and distance to the
Newton minimizer, and the Newton energy, on eight coarse problems, and
`CONFIG_ERRORS`, which prints what `parse_config` raises on each config of
`CONFIG_TEXTS`, or that it accepts it. Each one's stdout is kept in its
file, without the wall time that ends each `verify` check line, and the
exit codes go to `transcript_exit_codes.json`.
The command prints every file that differs between the two sides, a file
present on one side only included, with the first differing line of each
side of a text file, and exits 1 if any file differs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench"), str(ROOT / "src")]
from bench_pairs import ENV, checkout, resolve  # noqa: E402
from workloads import PIPELINE_CONFIGS  # noqa: E402

CENTERS = "0.1;-0.25"
N2_H16 = ("sym-p2", "asym-p2")  # the configs also diagnosed at n = 2, h = 1/16
RADII = ";".join(repr(0.125 * 2.0 ** (k / 4.0)) for k in range(9))  # 1/8 .. 1/2
_NEAR_EDGE = f"g = trig:freq=1.8\nh = {1 / 32!r}\n"  # free-boundary points at x = +-0.868
_ASYM = "".join(f"{k} = {v}\n" for k, v in PIPELINE_CONFIGS["asym-p2"].items())

# (name, config text) of the all-stage runs that take the profile stage's other
# branches: near-edge points with no default radii, near-edge points whose ball
# does not fit the largest explicit radius, a one-radius ladder too short for
# a frequency, and explicit radii with auto centers
EXTRA_RUNS = [
    ("near-edge-h32-run", _NEAR_EDGE),
    ("near-edge-h32-run-radii-2", _NEAR_EDGE + "radii = 0.125;0.25\n"),
    ("near-edge-h32-run-radii-1", _NEAR_EDGE + "radii = 0.125\n"),
    ("asym-p2-h32-run-explicit-radii", _ASYM + f"h = {1 / 32!r}\nradii = {RADII}\n"),
]

# the brute-force oracle on the three corpus configs at h = 1/8 and 1/16 and on
# asym-p2 at p = 1.5 and 1.25, h = 1/8: its energy, step count and sup|grad J|,
# its distance to the Newton minimizer, and Newton's energy. The lattices
# alternate (1/8, 1/16, 1/8, ...), so each Newton solve after the first two
# returns to a lattice after one solve on another.
ORACLE = """
import numpy as np
from bilaplab.oracle import brute_minimize
from bilaplab.problem import ProblemSpec
from bilaplab.solver import minimize
from bilaplab.verify import CORPUS, corpus_spec

specs = [(f"{tag} h=1/{k}", corpus_spec(tag, k)) for tag in CORPUS for k in (8, 16)]
specs += [(f"asym-p2 p={p} h=1/8", ProblemSpec(**{**CORPUS["asym-p2"], "p": p}, h=0.125))
          for p in (1.5, 1.25)]
for name, spec in specs:
    ref, newton = brute_minimize(spec), minimize(spec)
    gap = np.abs(ref.u.values - newton.u.values).max()
    print(name, repr(ref.energy), ref.iterations, repr(ref.grad_sup), "%.3e" % gap,
          repr(newton.energy))
"""

# the configs whose parse outcome is compared: the cases of test_cli's
# `test_parse_errors_name_the_offending_key`, then four more rules of the spec,
# then three data whose bound on the closed half-ball overflows
CONFIG_TEXTS = [
    "flux = 3", "p = 0.5", "lambda_plus = 0", "lambda_minus = -2", "h = 0.3",
    "centers = 1.5", "m = 512", "stages = solve,fly", "p = 2\np = 3", "p", "h = nan", "h = inf",
    "tol_grad = nan", "lambda_plus = inf", "lambda_minus = -inf", "centers = nan",
    "radii = 0.5;inf", "p = inf", "g = trig:freq=nan", "g = trig:freq=1,amp=inf",
    "g = harmonic:deg=1,coef=nan", "g = harmonic:coeffs=1;nan", "g = harmonic:coeffs=1,coef=5",
    "g = harmonic", "g = trig", "g = tabulated", "g = tabulated:values=1;-inf", "h = 1",
    "h = 0.5", f"h = {1 / 3!r}", "centers = 0.10001;0.10004", "centers = 0.1;0.1", "seed = -1",
    "n = 3", "tol_grad = -1", "max_iter = 0", "g = harmonic:deg=200",
    "g = trig:freq=1000", "g = harmonic:coeffs=1e308;1e308",
    "g = tabulated:values=1e308;-1e308",
]
# each config of CONFIG_TEXTS and the type and message of what `parse_config`
# raises on it, or "accepted"
CONFIG_ERRORS = f"""
from bilaplab.config import parse_config
for text in {CONFIG_TEXTS!r}:
    try:
        parse_config(text)
        outcome = "accepted"
    except Exception as exc:
        outcome = f"{{type(exc).__name__}}: {{exc}}"
    print(repr(text), outcome)
"""

# (file, arguments of the interpreter) of each command whose stdout is compared
TRANSCRIPTS = [
    ("verify-quick.txt", ["-m", "bilaplab.cli", "verify", "--level", "quick"]),
    ("verify-full.txt", ["-m", "bilaplab.cli", "verify", "--level", "full"]),
    ("extension-check.txt", ["-m", "bilaplab.cli", "extension-check"]),
    ("extension-check-modes-1,2,3,5,8-height-16.txt",
     ["-m", "bilaplab.cli", "extension-check", "--modes", "1,2,3,5,8", "--height", "16"]),
    ("demo-extension_identity.txt", ["demos/extension_identity.py"]),
    ("demo-free_boundary_tour.txt", ["demos/free_boundary_tour.py"]),
    ("demo-solve_and_profile.txt", ["demos/solve_and_profile.py"]),
    ("oracle.txt", ["-c", ORACLE]),
    ("config-errors.txt", ["-c", CONFIG_ERRORS]),
]
# the wall time `verify` prints at the end of each check line
_CHECK_TIME = re.compile(r"  \d+\.\d\d s$", re.MULTILINE)

# runs every listed command in one process; argv[1] lists the runs, argv[2] gets the exit
# codes. The command `run` is `config.run` on the parsed config, with every stage it names.
DRIVER = """
import json, sys
from pathlib import Path
from bilaplab.cli import main
from bilaplab.config import parse_config, run

def call(argv):
    if argv[0] != "run":
        return main(argv)
    run(parse_config(Path(argv[1]).read_text()))
    return 0

runs = json.loads(Path(sys.argv[1]).read_text())
codes = {name: call(argv) for name, argv in runs}
Path(sys.argv[2]).write_text(json.dumps(codes, indent=1) + "\\n")
"""


def runs() -> list[tuple[str, str, str]]:
    """(name, command, config text without `output`) of every run, in order."""
    out = []
    for tag, case in PIPELINE_CONFIGS.items():
        text = "".join(f"{k} = {v}\n" for k, v in case.items())
        for h_inv in (16, 32):
            for command in ("solve", "diagnose", "blowup"):
                out.append((f"{tag}-h{h_inv}-{command}", command, text + f"h = {1 / h_inv!r}\n"))
        out.append((f"{tag}-h32-diagnose-explicit", "diagnose",
                    text + f"h = {1 / 32!r}\ncenters = {CENTERS}\nradii = {RADII}\n"))
        out.append((f"{tag}-h32-run", "run", text + f"h = {1 / 32!r}\n"))
        if not case["g"].startswith("tabulated"):  # tabulated data is n = 1 only
            for command in ("solve", "diagnose"):
                out.append((f"{tag}-n2-h8-{command}", command, text + "n = 2\nh = 0.125\n"))
        if tag in N2_H16:
            out.append((f"{tag}-n2-h16-diagnose", "diagnose", text + "n = 2\nh = 0.0625\n"))
    return out + [(name, "run", text) for name, text in EXTRA_RUNS]


def produce(tree: Path, into: Path) -> Path:
    """Run every run of `runs()` with the sources of `tree`; returns the
    directory under `into` that holds the artifacts."""
    configs, dest = into / "configs", into / "out"
    configs.mkdir(parents=True)
    dest.mkdir(parents=True)
    argvs = []
    for name, command, text in runs():
        cfg = configs / f"{name}.cfg"
        cfg.write_text(text + f"output = {dest / name}\n")
        argvs.append((name, [command, str(cfg)]))
    (configs / "runs.json").write_text(json.dumps(argvs))
    subprocess.run([sys.executable, "-c", DRIVER, str(configs / "runs.json"),
                    str(dest / "exit_codes.json")],
                   cwd=tree, env={**ENV, "PYTHONPATH": str(tree / "src")}, check=True,
                   stdout=subprocess.DEVNULL)
    transcribe(tree, dest, TRANSCRIPTS)
    return dest


def transcribe(tree: Path, dest: Path, commands) -> None:
    """Run each (file, arguments) of `commands` with the interpreter in `tree`
    and its sources; write its stdout, times stripped, to `dest / file` and
    every exit code to `dest / transcript_exit_codes.json`."""
    codes = {}
    for name, argv in commands:
        proc = subprocess.run([sys.executable, *argv],
                              cwd=tree, env={**ENV, "PYTHONPATH": str(tree / "src")},
                              stdout=subprocess.PIPE, text=True)
        (dest / name).write_text(strip_times(proc.stdout))
        codes[name] = proc.returncode
    (dest / "transcript_exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


def strip_times(transcript: str) -> str:
    """A `verify` transcript without the wall time that ends each check line."""
    return _CHECK_TIME.sub("", transcript)


def differing(base: Path, change: Path) -> tuple[int, list[str]]:
    """The number of files under either directory, and the relative paths of
    those that are not byte-identical on both sides (one-sided files included)."""
    files = {p.relative_to(root).as_posix()
             for root in (base, change) for p in root.rglob("*") if p.is_file()}
    diff = [f for f in sorted(files)
            if not ((base / f).is_file() and (change / f).is_file()
                    and (base / f).read_bytes() == (change / f).read_bytes())]
    return len(files), diff


def describe(base: Path, change: Path, name: str) -> list[str]:
    """The lines that report the differing file `name`: its name, then for a
    text file (UTF-8 on both sides) the first line where the sides differ,
    as it reads on each side."""
    out = [f"differs: {name}"]
    try:
        sides = [(root / name).read_text(encoding="utf-8").splitlines(keepends=True)
                 for root in (base, change)]
    except (FileNotFoundError, UnicodeDecodeError):
        return out
    for k, pair in enumerate(itertools.zip_longest(*sides), start=1):
        if pair[0] != pair[1]:
            for side, line in zip(("base", "change"), pair):
                shown = "(no line)" if line is None else line.rstrip("\n")
                out.append(f"  {side:<6s} line {k}: {shown}")
            break
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", default="HEAD~1", help="revision of the base side")
    ap.add_argument("--change", default="HEAD",
                    help="revision of the change side, or WORKTREE")
    ap.add_argument("--workdir", type=Path, default=None,
                    help="keep checkouts and artifacts here (default: a temporary directory)")
    args = ap.parse_args(argv)

    commits = {"base": resolve(args.base), "change": resolve(args.change)}
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="same-bytes-"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outs = [produce(checkout(commit, workdir / side), workdir / side)
                for side, commit in commits.items()]
        total, diff = differing(*outs)
        report = [line for f in diff for line in describe(*outs, f)]
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    for line in report:
        print(line)
    print(f"{len(runs())} runs per side, {total} files, {len(diff)} differ "
          f"(base {commits['base'][:12]} = {args.base}, "
          f"change {commits['change'][:12]} = {args.change})")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
