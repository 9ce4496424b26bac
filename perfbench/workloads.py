"""The benchmark's workloads: one round of operations each, with their checks.

A workload is built from a seed (`build`). The seed fixes the order of the
operations in a round and every random choice a check makes; the program
receives only the generated inputs. Each operation reaches the package
through module attributes at call time (`solver.minimize`, `cli.main`), so
a traced run sees it.
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from bilaplab import cli, solver, verify
from bilaplab.problem import ProblemSpec

WORKLOADS = ("sweep-n1", "pipeline-n1", "verify-quick")

# the verify corpus
CORPUS = {
    "sym-p2": dict(p=2.0, lambda_plus=1.0, lambda_minus=1.0, g="harmonic:deg=1"),
    "asym-p2": dict(p=2.0, lambda_plus=2.0, lambda_minus=0.5, g="harmonic:coeffs=1;0.2"),
    "sym-p3": dict(p=3.0, lambda_plus=1.0, lambda_minus=1.0, g="harmonic:deg=1"),
}

SWEEP_DATUM = "harmonic:coeffs=1;0.2"
SWEEP_WEIGHTS = ((1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (4.0, 4.0))
SWEEP_EXPONENTS = (2.0, 2.5, 3.0, 4.0)
SWEEP_H = 1.0 / 64
DESCENT_CASE = dict(p=1.5, lambda_plus=1.0, lambda_minus=1.0, g=SWEEP_DATUM, h=1.0 / 16)

PIPELINE_H = 1.0 / 32
PIPELINE_CONFIGS = {
    **{tag: dict(kw) for tag, kw in CORPUS.items()},
    "trig-sin3": dict(p=2.0, lambda_plus=1.0, lambda_minus=1.0, g="trig:freq=3,kind=sin"),
    "tabulated": dict(p=2.0, lambda_plus=1.0, lambda_minus=1.0,
                      g="tabulated:values=1;0.5;-0.2;-1"),
    "even": dict(p=2.0, lambda_plus=1.0, lambda_minus=1.0, g="harmonic:coeffs=0;1"),
}
PIPELINE_COMMANDS = ("diagnose", "blowup")

VERIFY_CACHES = (verify.corpus_spec, verify.corpus_solve, verify.corpus_oracle,
                 verify.corpus_points)


@dataclass
class Op:
    """One timed operation and the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    # an exception of this type counts the operation as failed, not as wrong
    expected_error: type | None = None


@dataclass
class Workload:
    ops: list[Op]                                   # one round, in seeded order
    warm_up: Callable[[], None] = lambda: None
    final_check: Callable[[], None] = lambda: None  # after the timed phase
    cleanup: Callable[[], None] = lambda: None


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload `name` for `seed`; files go under `workdir`."""
    makers = {"sweep-n1": _sweep_n1, "pipeline-n1": _pipeline_n1,
              "verify-quick": _verify_quick}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return makers[name](np.random.default_rng([seed, WORKLOADS.index(name)]), workdir)


def _shuffled(ops: list[Op], rng) -> list[Op]:
    return [ops[k] for k in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# sweep-n1: solves


class SolveChecks:
    """Checks of SolveResults, plus the energy order across one workload's specs."""

    def __init__(self, rng):
        self.rng = rng
        self.energies: list[tuple[tuple, float, float, float]] = []

    def op(self, name: str, h: float, case: dict) -> Op:
        seed = int(self.rng.integers(2 ** 32))

        def run():
            return solver.minimize(ProblemSpec(n=1, h=h, **case))

        def check(result):
            nodes = result.u.grid.nodes
            u = result.u.values
            lat = checks.Lattice(nodes, h)
            checks.check_datum(lat, nodes, u, case["g"])
            J = checks.check_minimizer(lat, nodes, u, case["p"], case["lambda_plus"],
                                       case["lambda_minus"], result.energy,
                                       np.random.default_rng(seed))
            self.energies.append(((h, case["p"], case["g"]),
                                  case["lambda_plus"], case["lambda_minus"], J))

        return Op(name, run, check)

    def final_check(self):
        checks.check_energy_order(self.energies)


def _warm_up_solver():
    solver.minimize(ProblemSpec(n=1, p=2.5, g="harmonic:coeffs=0.5;-0.3", h=1.0 / 8))


def _sweep_n1(rng, workdir: Path) -> Workload:
    sc = SolveChecks(rng)
    ops = [sc.op(f"lambda={lp:g},{lm:g} p={p:g}", SWEEP_H,
                 dict(p=p, lambda_plus=lp, lambda_minus=lm, g=SWEEP_DATUM))
           for lp, lm in SWEEP_WEIGHTS for p in SWEEP_EXPONENTS]
    case = {k: v for k, v in DESCENT_CASE.items() if k != "h"}
    descent = sc.op("p=1.5 h=1/16", DESCENT_CASE["h"], case)
    descent.expected_error = solver.SolverError
    ops.append(descent)
    return Workload(_shuffled(ops, rng), warm_up=_warm_up_solver,
                    final_check=sc.final_check)


# ---------------------------------------------------------------------------
# pipeline-n1: `bilaplab diagnose` and `bilaplab blowup` in-process


def _config_text(case: dict, h: float, seed: int, output: Path) -> str:
    lines = [f"{k} = {case[k]!r}" for k in ("p", "lambda_plus", "lambda_minus")]
    lines += [f"g = {case['g']}", f"h = {h!r}", f"seed = {seed}", f"output = {output}"]
    return "\n".join(lines) + "\n"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`bilaplab <argv>` in this process; its exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def pipeline_op(name: str, command: str, cfg_path: Path, run_dir: Path, h: float,
                odd: bool) -> Op:
    def run():
        return run_cli([command, str(cfg_path)])

    def check(outcome):
        code, _ = outcome
        if code != 0:
            raise checks.CheckFailed(f"bilaplab {command} exited {code}")
        checks.check_fields(run_dir, h)
        if command == "blowup":
            checks.check_gamma(run_dir)
            if odd:
                checks.check_symmetric_gamma(run_dir)

    return Op(name, run, check)


def _pipeline_n1(rng, workdir: Path) -> Workload:
    trial_seed = int(rng.integers(1000))
    ops = []
    configs = {}
    for tag, case in PIPELINE_CONFIGS.items():
        odd = case["lambda_plus"] == case["lambda_minus"] and checks.datum_is_odd(case["g"])
        for command in PIPELINE_COMMANDS:
            run_dir = workdir / f"{tag}-{command}"
            cfg = workdir / f"{tag}-{command}.cfg"
            cfg.write_text(_config_text(case, PIPELINE_H, trial_seed, run_dir))
            configs[(tag, command)] = (case, run_dir)
            ops.append(pipeline_op(f"{command} {tag}", command, cfg, run_dir, PIPELINE_H, odd))

    rerun_key = list(configs)[int(rng.integers(len(configs)))]

    def rerun_is_identical():
        case, first = configs[rerun_key]
        again = workdir / "rerun"
        cfg = workdir / "rerun.cfg"
        cfg.write_text(_config_text(case, PIPELINE_H, trial_seed, again))
        code, _ = run_cli([rerun_key[1], str(cfg)])
        if code != 0:
            raise checks.CheckFailed(f"rerun of {rerun_key} exited {code}")
        checks.check_identical(first, again)

    def warm_up():
        warm = workdir / "warm-up"
        cfg = workdir / "warm-up.cfg"
        case = dict(p=2.5, lambda_plus=1.5, lambda_minus=1.0, g="harmonic:coeffs=1;-0.3")
        cfg.write_text(_config_text(case, 1.0 / 8, 0, warm))
        code, _ = run_cli(["blowup", str(cfg)])
        if code != 0:
            raise RuntimeError(f"warm-up bilaplab blowup exited {code}")

    return Workload(_shuffled(ops, rng), warm_up=warm_up,
                    final_check=rerun_is_identical,
                    cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


# ---------------------------------------------------------------------------
# verify-quick: the acceptance battery, from an empty memo of corpus solves


def _verify_quick(rng, workdir: Path) -> Workload:
    def run():
        for cache in VERIFY_CACHES:
            cache.cache_clear()
        return run_cli(["verify", "--level", "quick"])

    def check(outcome):
        code, text = outcome
        if code != 0 or not re.search(r"^12/12 checks passed$", text, re.M):
            tail = text.strip().splitlines()[-1:] or ["no output"]
            raise checks.CheckFailed(f"verify exited {code}: {tail[0]}")

    return Workload([Op("verify --level quick", run, check)],
                    warm_up=_warm_up_solver)
