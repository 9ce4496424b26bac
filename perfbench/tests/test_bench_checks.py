"""Each correctness check of the benchmark passes on a true output and fails on a corrupted one.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

from pathlib import Path

import numpy as np
import pytest

import checks
import spans
import workloads
import worker
from bilaplab import solver
from bilaplab.problem import ProblemSpec

H = 1.0 / 16
ASYM = dict(p=2.0, lambda_plus=2.0, lambda_minus=0.5, g="harmonic:coeffs=1;0.2")


def _run(tmp_path: Path, command: str, case: dict) -> Path:
    out = tmp_path / command
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(workloads._config_text(case, H, 0, out))
    code, _ = workloads.run_cli([command, str(cfg)])
    assert code == 0
    return out


def test_minimizer_check_fails_when_u_moves_off_its_minimizer():
    spec = ProblemSpec(n=1, h=H, **ASYM)
    res = solver.minimize(spec)
    nodes, u = spec.grid().nodes, res.u.values
    lat = checks.Lattice(nodes, H)
    args = (ASYM["p"], ASYM["lambda_plus"], ASYM["lambda_minus"])
    checks.check_datum(lat, nodes, u, ASYM["g"])
    checks.check_minimizer(lat, nodes, u, *args, res.energy, np.random.default_rng(3))

    bump = checks.smooth_direction(lat, nodes, np.random.default_rng(9))
    moved = u + 1e-3 * bump / np.abs(bump).max()
    J_moved = checks.lattice_energy(lat, moved, *args)
    with pytest.raises(checks.CheckFailed, match="lowers J"):
        checks.check_minimizer(lat, nodes, moved, *args, J_moved, np.random.default_rng(3))


def test_fields_check_fails_when_one_v_changes(tmp_path):
    run_dir = _run(tmp_path, "diagnose", ASYM)
    checks.check_fields(run_dir, H)

    path = run_dir / "fields.csv"
    lines = path.read_text().splitlines()
    k = len(lines) // 2  # a node well inside the half-disc
    x, y, u, v = lines[k].split(",")
    assert float(y) > 0.0
    lines[k] = ",".join([x, y, u, repr(float(v) + 1e-6)])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="Laplacian"):
        checks.check_fields(run_dir, H)


def test_gamma_check_fails_when_a_point_moves_by_one_cell(tmp_path):
    run_dir = _run(tmp_path, "blowup", ASYM)
    checks.check_gamma(run_dir)

    path = run_dir / "gamma.csv"
    lines = path.read_text().splitlines()
    first = lines[2].split(",")
    first[0] = repr(float(first[0]) + H)
    lines[2] = ",".join(first)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_gamma(run_dir)


@pytest.mark.parametrize("error, wrong", [(solver.ConvergenceError("no convergence"), False),
                                          (ValueError("bad input"), True)])
def test_descent_operation_may_fail_only_with_a_solver_error(monkeypatch, tmp_path,
                                                             error, wrong):
    wl = workloads.build("sweep-n1", 1, tmp_path)
    (op,) = [op for op in wl.ops if op.name.startswith("p=1.5")]

    def fail(spec):
        raise error

    monkeypatch.setattr(solver, "minimize", fail)
    outcome = worker.run_op(op)
    assert not outcome.completed
    assert (outcome.problem is not None) == wrong


def test_tracer_reports_self_times_and_restores_the_package():
    original = solver.minimize
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        root = tracer.open("op")
        solver.minimize(ProblemSpec(n=1, h=1.0 / 8, **ASYM))
        tracer.close(root)
    finally:
        restore()
    assert solver.minimize is original
    m = tracer.layer_metrics()
    assert m["solver.solves"] == 1 and m["grid.builds"] == 1 and m["problem.assemblies"] == 1
    assert m["solver.newton_iters"] >= 1 and m["solver.cg_iters"] >= 1
    # the extension's spsolve stays with solver.initial: one CG solve per Newton step
    assert m["solver.linear_solves"] == m["solver.newton_iters"]
    assert m["solver.factorizations"] == 0 and m["solver.initial_s"] > 0.0
    own = sum(t for _, t in tracer.self_times().values())
    assert own == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-9)
