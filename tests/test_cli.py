"""Config parsing, run artifacts, command exit codes, and the sign-flip trap."""

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bilaplab.config
import bilaplab.diagnostics
import bilaplab.freeboundary
import bilaplab.problem
import bilaplab.solver
import bilaplab.verify as verify
from bilaplab.cli import main
from bilaplab.config import ConfigError, output_root, parse_config, run
from bilaplab.diagnostics import default_radii, minimal_monneau_constant
from bilaplab.freeboundary import analyze_point, extract_gamma
from bilaplab.grid import sphere_quadrature
from bilaplab.problem import ProblemSpec

BASE = "h = 0.0625\ng = harmonic:deg=1\n"


def test_parse_empty_text_yields_defaults():
    cfg = parse_config("")
    assert cfg.spec.n == 1
    assert cfg.spec.p == 2.0
    assert cfg.spec.lambda_plus == 1.0
    assert cfg.spec.lambda_minus == 1.0
    assert cfg.spec.h == 0.0625
    assert cfg.seed == 0
    assert cfg.stages == ("solve", "profile", "gamma")
    commented = parse_config("# nothing but a comment\n\n")
    assert commented.digest == cfg.digest


@pytest.mark.parametrize("text,message", [
    ("flux = 3", r"unknown key 'flux' \(line 1\)"),
    ("p = 0.5", r"key 'p'.*requires p > 1.*0\.5"),
    ("lambda_plus = 0", r"key 'lambda_plus'.*must be > 0"),
    ("lambda_minus = -2", r"key 'lambda_minus'.*must be > 0"),
    ("h = 0.3", r"key 'h'.*divide 1 exactly.*0\.3"),
    ("centers = 1.5", r"key 'centers'.*outside the open thin face"),
    ("m = 512", r"unknown key 'm' \(line 1\)"),
    ("stages = solve,fly", r"key 'stages'.*unknown stage"),
    ("p = 2\np = 3", r"key 'p' given twice \(line 2\)"),
    ("p", r"line 1: expected 'key = value'"),
    ("h = nan", r"key 'h'.*finite number.*'nan'"),
    ("h = inf", r"key 'h'.*finite number.*'inf'"),
    ("tol_grad = nan", r"key 'tol_grad'.*finite number"),
    ("lambda_plus = inf", r"key 'lambda_plus'.*finite number"),
    ("lambda_minus = -inf", r"key 'lambda_minus'.*finite number"),
    ("centers = nan", r"key 'centers'.*finite number"),
    ("radii = 0.5;inf", r"key 'radii'.*finite number"),
    ("p = inf", r"key 'p'.*finite number"),
    ("g = trig:freq=nan", r"key 'g'.*must be finite.*'nan'"),
    ("g = trig:freq=1,amp=inf", r"key 'g'.*must be finite.*'inf'"),
    ("g = harmonic:deg=1,coef=nan", r"key 'g'.*must be finite"),
    ("g = harmonic:coeffs=1;nan", r"key 'g'.*must be finite"),
    ("g = harmonic:coeffs=1,coef=5", r"key 'g'.*unknown harmonic parameters"),
    ("g = harmonic", r"key 'g'.*family 'harmonic' needs the parameter 'deg'"),
    ("g = trig", r"key 'g'.*family 'trig' needs the parameter 'freq'"),
    ("g = tabulated", r"key 'g'.*family 'tabulated' needs the parameter 'values'"),
    ("g = tabulated:values=1;-inf", r"key 'g'.*must be finite"),
    ("h = 1", r"key 'h'.*h <= 1/4"),
    ("h = 0.5", r"key 'h'.*h <= 1/4"),
    (f"h = {1 / 3!r}", r"key 'h'.*h <= 1/4"),
    ("centers = 0.10001;0.10004", r"key 'centers'.*differ in the 4 decimals"),
    ("centers = 0.1;0.1", r"key 'centers'.*differ in the 4 decimals"),
    ("seed = -1", r"key 'seed'.*non-negative integer.*-1"),
])
def test_parse_errors_name_the_offending_key(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


# per init field of ProblemSpec: a value it accepts, as the echo writes it, and one it refuses
SPEC_KEYS = {
    "n": ("2", "3"), "p": ("3.0", "1.0"), "lambda_plus": ("2.5", "-1"),
    "lambda_minus": ("0.5", "0"), "h": ("0.125", "0.3"), "g": ("harmonic:deg=2", "harmonic:deg=41"),
    "tol_grad": ("1e-09", "0"), "max_iter": ("7", "2.5"),
}


def test_every_spec_field_is_a_config_key():
    """The problem keys of a config are the spec's init fields, in the order
    of its echo: each is accepted, echoed, and refused by a ConfigError naming it."""
    assert list(SPEC_KEYS) == [f.name for f in dataclasses.fields(ProblemSpec) if f.init]
    assert [line.split(" = ")[0] for line in parse_config("").echo().splitlines()] == [
        *SPEC_KEYS, "centers", "radii", "seed", "stages"]
    for key, (good, bad) in SPEC_KEYS.items():
        assert f"\n{key} = {good}\n" in "\n" + parse_config(f"{key} = {good}").echo()
        with pytest.raises(ConfigError, match=f"^key '{key}': "):
            parse_config(f"{key} = {bad}")


def test_a_harmonic_degree_above_the_cap_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "steep.cfg"
    cfgfile.write_text(f"g = harmonic:deg=200\noutput = {tmp_path / 'steep'}\n")
    assert main(["solve", str(cfgfile)]) == 2
    assert "key 'g': harmonic parameter 'deg' reaches degree 200" in capsys.readouterr().err
    assert not (tmp_path / "steep").exists()


def test_coarsest_accepted_grid_solves(tmp_path):
    """h = 1/4 is the coarsest step `parse_config` accepts; a solve at it runs
    to the end, the weak residual on the unit ball included."""
    cfg = parse_config(f"h = 0.25\ng = harmonic:deg=1\nstages = solve\n"
                       f"output = {tmp_path / 'coarse'}\n")
    summary = json.loads((run(cfg) / "summary.json").read_text())
    assert summary["solve"]["h"] == 0.25
    assert np.isfinite(summary["stationarity"]["weak_residual"])


def _stage_cases(h_inv):
    """(name, config lines, key `diagnose` must name or None) for h = 1/h_inv."""
    h = 1.0 / h_inv
    return [
        ("auto", "", "h" if h_inv == 4 else None),
        ("edge-center", "centers = 0.9\n", "centers"),  # 0.9 (1 - 0.9) < 4h
        ("near-centers", "centers = -0.3;0.1\n", "centers" if h_inv <= 6 else None),
        ("fine-radii", f"radii = {2 * h!r};0.5\n", "radii"),  # below 4h
        ("wide-radii", "centers = 0.9\nradii = 0.5\n", "radii"),  # beyond 1 - |c|
        ("fitting-radii", f"radii = {4 * h!r};0.8\n", "radii" if h_inv == 4 else None),
    ]


@pytest.mark.parametrize("h_inv", [4, 5, 6, 7, 8])
def test_a_run_finishes_every_stage_or_writes_nothing(h_inv, tmp_path, capsys):
    """`diagnose` and `blowup` either exit 0 with every artifact of the
    command, or exit 2 naming the key whose balls an instrument would refuse,
    before the solve, and leave no run directory. `blowup` profiles the
    free-boundary points on their default radii, so only 'h' can stop it."""
    for name, lines, key in _stage_cases(h_inv):
        for command, expected in (("diagnose", key), ("blowup", "h" if h_inv == 4 else None)):
            out = tmp_path / f"{command}-{name}"
            cfgfile = tmp_path / f"{command}-{name}.cfg"
            cfgfile.write_text(f"h = {1 / h_inv!r}\ng = harmonic:deg=1\n{lines}output = {out}\n")
            code = main([command, str(cfgfile)])
            err = capsys.readouterr().err
            if expected is not None:
                assert code == 2 and f"key '{expected}'" in err, (command, name, err)
                assert not out.exists()
                continue
            assert code == 0, (command, name, err)
            names = set(os.listdir(out))
            assert {"config.txt", "fields.csv", "summary.json"} <= names
            if command == "blowup":
                assert names == {"config.txt", "fields.csv", "summary.json", "gamma.csv"}
            else:
                centers = parse_config(cfgfile.read_text()).centers or [0.0]
                assert names - {"config.txt", "fields.csv", "summary.json"} == {
                    f"profile_{c:+.4f}.csv" for c in centers}


def test_a_failed_solve_writes_nothing(tmp_path, capsys):
    """lambda+- = 1e6 at p = 1.5 does not converge (see CHANGES.md); the run
    exits 1 and leaves no run directory."""
    cfgfile = tmp_path / "stiff.cfg"
    cfgfile.write_text(f"p = 1.5\nlambda_plus = 1e6\nlambda_minus = 1e6\ng = harmonic:deg=1\n"
                       f"h = 0.0625\noutput = {tmp_path / 'stiff'}\n")
    assert main(["solve", str(cfgfile)]) == 1
    assert "no convergence" in capsys.readouterr().err
    assert not (tmp_path / "stiff").exists()


# data whose bound on the closed unit half-ball overflows (refused as key 'g'),
# and data near overflow whose energy overflows (the solve fails)
OVERFLOWING_DATA = ["trig:freq=1000", "harmonic:coeffs=1e308;1e308",
                    "tabulated:values=1e308;-1e308"]
INFINITE_ENERGY_DATA = ["trig:freq=700", "harmonic:coeffs=1e300", "trig:freq=1,amp=1e300"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("datum", OVERFLOWING_DATA + INFINITE_ENERGY_DATA)
def test_a_huge_datum_ends_in_a_typed_error(datum, tmp_path, capsys):
    """A datum that overflows on the half-ball is a `SpecError` on 'g' and
    exits 2; one whose energy is not finite ends the solve in a `SolverError`
    carrying the iterate and the trace, and exits 1. Neither writes a run,
    and the typed error is the only report: no NumPy warning precedes it."""
    text = f"g = {datum}\nh = 0.125\n"
    cfgfile = tmp_path / "huge.cfg"
    cfgfile.write_text(text + f"output = {tmp_path / 'huge'}\n")
    if datum in OVERFLOWING_DATA:
        with pytest.raises(bilaplab.problem.SpecError) as exc:
            ProblemSpec(g=datum, h=0.125)
        assert exc.value.field == "g"
        with pytest.raises(ConfigError, match="key 'g': boundary datum overflows"):
            parse_config(text)
        code, message = 2, "config error: key 'g': boundary datum overflows"
    else:
        with pytest.raises(bilaplab.solver.SolverError, match="not finite") as exc:
            bilaplab.solver.minimize(ProblemSpec(g=datum, h=0.125))
        assert exc.value.trace == [] and np.isfinite(exc.value.iterate.values).all()
        code, message = 1, "error: energy inf or sup grad"
    assert main(["blowup", str(cfgfile)]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "huge").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight", [1e150, 1e300])
def test_a_huge_phase_weight_ends_in_a_typed_error(weight, tmp_path, capsys):
    """Phase weights near overflow make the Newton system's products overflow: CG
    runs to its step limit and the solve exits 1 with a `LinearSolveError`,
    the only report, and writes no run."""
    cfgfile = tmp_path / "heavy.cfg"
    cfgfile.write_text(f"p = 2\nlambda_plus = {weight!r}\nlambda_minus = {weight!r}\n"
                       f"g = harmonic:coeffs=1;0.2\nh = 0.125\noutput = {tmp_path / 'heavy'}\n")
    assert main(["solve", str(cfgfile)]) == 1
    assert "error: conjugate gradient stalled" in capsys.readouterr().err
    assert not (tmp_path / "heavy").exists()


# p near 1 and weights at the edges of what parse_config accepts: each of
# lambda+- is 0 (refused), the default 1, or 1e6 (Newton cannot converge)
EDGE_WEIGHTS = [(0, 0), (0, 1e6), (1e6, 0), (1e6, 1e6), (1e6, 1), (1, 1e6)]


@pytest.mark.parametrize("p", [1.01, 1.1, 1.25])
def test_every_edge_input_solves_or_fails_with_a_typed_error(p, tmp_path):
    for lam_plus, lam_minus in EDGE_WEIGHTS:
        out = tmp_path / f"{lam_plus}-{lam_minus}"
        text = (BASE + f"p = {p}\nlambda_plus = {lam_plus}\nlambda_minus = {lam_minus}\n"
                f"stages = solve\noutput = {out}\n")
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert 0 in (lam_plus, lam_minus) and "must be > 0" in str(exc)
            continue
        try:
            solve = json.loads((run(cfg) / "summary.json").read_text())["solve"]
            assert solve["grad_sup"] <= 1e-8 * (1.0 + abs(solve["energy"]))
        except bilaplab.solver.SolverError as exc:
            assert exc.iterate is not None and exc.trace
            assert not out.exists()


NEAR_EDGE = "g = trig:freq=1.8\nh = 0.03125\n"


def test_a_free_boundary_point_near_the_face_edge_is_skipped_with_a_note(tmp_path, capsys):
    """trig:freq=1.8 at h = 1/32 puts its free-boundary points at x = +-0.868,
    where 0.9 (1 - |x|) < 4h leaves no default radii. `blowup` and a run of
    all three stages exit cleanly: each point keeps its classification,
    summary.json records why it has no profile, its analysis columns in
    gamma.csv are empty, and no profile is written for it."""
    reason = "no admissible radii: 0.9 dist = 0.1188 < 4h = 0.125"
    cfgfile = tmp_path / "edge.cfg"
    cfgfile.write_text(NEAR_EDGE + f"output = {tmp_path / 'blowup'}\n")
    assert main(["blowup", str(cfgfile)]) == 0, capsys.readouterr().err
    out = run(parse_config(NEAR_EDGE + f"output = {tmp_path / 'run'}\n"))
    assert sorted(os.listdir(out)) == ["config.txt", "fields.csv", "gamma.csv", "summary.json"]
    for d in (tmp_path / "blowup", out):
        points = json.loads((d / "summary.json").read_text())["points"]
        assert [round(pt["x"], 3) for pt in points] == [-0.868, 0.868]
        for pt in points:
            assert pt["classification"] == "REGULAR" and pt["profile_error"] == reason
            assert pt["mu_hat"] is pt["mu_int"] is pt["dimension"] is pt["fit_residual"] is None
        rows = (d / "gamma.csv").read_text().splitlines()[2:]
        assert [row.split(",")[2:] for row in rows] == [["REGULAR", "", "", "", ""]] * 2
    profiles = json.loads((out / "summary.json").read_text())["profiles"]
    assert profiles == {f"{pt['x']:+.4f}": {"center": pt["x"], "profile_error": reason}
                        for pt in points}


def test_explicit_radii_an_auto_center_cannot_fit_are_skipped_with_a_note(tmp_path):
    """With explicit radii 1/8 and 1/4 and auto centers, the free-boundary
    points at x = +-0.868 fit r = 1/8 but not r = 1/4 inside the unit ball:
    the run exits normally, each point's profile entry holds only the
    reason, and no profile is written. With r = 1/8 alone both are profiled."""
    out = run(parse_config(NEAR_EDGE + "radii = 0.125;0.25\n" + f"output = {tmp_path / 'a'}\n"))
    assert sorted(os.listdir(out)) == ["config.txt", "fields.csv", "gamma.csv", "summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    xs = [pt["x"] for pt in summary["points"]]
    assert [round(x, 3) for x in xs] == [-0.868, 0.868]
    reason = "ball B_r(center) not contained in the unit ball"
    assert summary["profiles"] == {f"{x:+.4f}": {"center": x, "profile_error": reason}
                                   for x in xs}
    out = run(parse_config(NEAR_EDGE + "radii = 0.125\n" + f"output = {tmp_path / 'b'}\n"))
    profiles = json.loads((out / "summary.json").read_text())["profiles"]
    assert [profiles[f"{x:+.4f}"]["radii"] for x in xs] == [[0.125], [0.125]]
    assert all(f"profile_{x:+.4f}.csv" in os.listdir(out) for x in xs)


def test_run_writes_artifact_tree(tmp_path):
    cfg = parse_config(BASE + f"output = {tmp_path / 'art'}\n")
    out = run(cfg)
    names = sorted(os.listdir(out))
    assert names == ["config.txt", "fields.csv", "gamma.csv",
                     "profile_+0.0000.csv", "summary.json"]
    stamp = f"# config {cfg.digest}"
    for csv in ("fields.csv", "gamma.csv", "profile_+0.0000.csv"):
        lines = (out / csv).read_text().splitlines()
        assert lines[0] == stamp
    assert (out / "fields.csv").read_text().splitlines()[1] == "x,y,u,v"
    head = (out / "profile_+0.0000.csv").read_text().splitlines()[1]
    assert head == "r,H,D,D0,B,N,N0,phi"

    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_hash"] == cfg.digest
    assert set(summary) == {"config", "config_hash", "points", "profiles",
                            "solve", "stationarity"}
    assert summary["solve"]["node_count"] > 0
    point, = summary["points"]
    assert point["x"] == pytest.approx(0.0, abs=1e-9)
    assert point["classification"] in ("REGULAR", "SINGULAR")
    assert point["mu_int"] == 1


def test_run_is_byte_deterministic(tmp_path):
    out_a = run(parse_config(BASE + f"output = {tmp_path / 'a'}\n"))
    out_b = run(parse_config(BASE + f"output = {tmp_path / 'b'}\n"))
    for name in sorted(os.listdir(out_a)):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_config_txt_parses_back_to_the_run_digest(tmp_path):
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text("h = 0.0625\np = 2.5\ng = tabulated:values=1;0.5;-0.2;-1\n"
                       "tol_grad = 1e-09\ncenters = 0.1;-0.2\nseed = 3\n"
                       f"output = {tmp_path / 'solve'}\n")
    assert main(["solve", str(cfgfile)]) == 0
    summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
    echoed = parse_config((tmp_path / "solve" / "config.txt").read_text())
    assert echoed.digest == summary["config_hash"]


def test_each_free_boundary_point_is_profiled_once(tmp_path, monkeypatch):
    """`blowup` and the default stages profile each point once and estimate
    its frequency once; the Monneau constant equals one computed field by
    field on the point's radii."""
    real = bilaplab.diagnostics.compute_profile
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(bilaplab.freeboundary, "compute_profile", counted)
    real_mu = bilaplab.diagnostics.estimate_mu
    mu_calls = []

    def counted_mu(*args, **kwargs):
        mu_calls.append(args[0])
        return real_mu(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bilaplab" or name.startswith("bilaplab."):
            for attr, value in list(vars(module).items()):
                if value is real_mu:
                    monkeypatch.setattr(module, attr, counted_mu)
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text(BASE + f"output = {tmp_path / 'blowup'}\n")
    assert main(["blowup", str(cfgfile)]) == 0
    points = json.loads((tmp_path / "blowup" / "summary.json").read_text())["points"]
    assert len(calls) == len(mu_calls) == len(points) >= 1
    calls.clear()
    mu_calls.clear()
    run(parse_config(BASE + f"output = {tmp_path / 'all'}\n"))
    assert len(calls) == len(mu_calls) == len(points)

    cfg = parse_config(BASE)
    spec = cfg.spec
    result = bilaplab.solver.minimize(spec)
    for pt, row in zip(extract_gamma(result.u), points):
        analyze_point(pt, result)
        assert pt.mu_int is not None and pt.mu_int >= 1
        radii = default_radii(spec.grid(), [pt.x])
        mu, c = float(pt.mu_int), np.array([pt.x, 0.0])
        M = []
        for r in radii:
            quad = sphere_quadrature(spec.grid(), c, float(r))
            rel = quad.surface_points - c
            du = result.u(quad.surface_points) - pt.p_mu(rel)
            dv = result.v(quad.surface_points) - pt.q_mu(rel)
            M.append((quad.surface_weights @ (du ** 2 + dv ** 2)) / r ** (spec.n + 2 * mu))
        M = np.where(pt.profile.degenerate, np.nan, M)
        assert row["monneau_constant"] == minimal_monneau_constant(radii, M)
        assert pt.monneau_constant == minimal_monneau_constant(radii, M)


def test_bulk_float_rows_write_the_same_bytes_as_per_value_formatting(tmp_path):
    special = [np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, 1e-300, 0.1, 1.0 / 3, -2.5e17]
    rng = np.random.default_rng(6)
    table = np.column_stack([special, *rng.standard_normal((3, len(special)))])
    table = np.vstack([table, rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-20, 20, (50, 4))])
    header = ["x", "y", "u", "v"]
    (tmp_path / "bulk.csv").write_text(bilaplab.config._csv("abc", header, table))
    (tmp_path / "rows.csv").write_text(bilaplab.config._csv("abc", header, zip(*table.T)))
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("n,h_inv", [(1, 16), (1, 32), (2, 8)])
def test_fields_csv_is_the_csv_of_the_node_rows(n, h_inv, tmp_path):
    """fields.csv takes x and y from a table of the lattice's k h, and its
    bytes are those of `_csv` over the (x, y, u, v) row of every node; so
    are those of values that only `repr` spells out: nan, -0.0, inf."""
    cfg = parse_config(f"n = {n}\nh = {1 / h_inv!r}\ng = harmonic:coeffs=1;0.2\n"
                       f"stages = solve\noutput = {tmp_path / 'run'}\n")
    out = run(cfg)
    grid, result = cfg.spec.grid(), bilaplab.solver.minimize(cfg.spec)
    u, v = result.u.values, result.v.values
    header = ["x", "y", "u", "v"]
    rows = np.column_stack((grid.nodes[:, 0], grid.nodes[:, -1], u, v))
    assert (out / "fields.csv").read_text() == bilaplab.config._csv(cfg.digest, header, rows)
    special = np.resize([np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -2.5e17], u.size)
    rows[:, 2] = special
    assert (bilaplab.config._fields_csv("abc", grid, special, v)
            == bilaplab.config._csv("abc", header, rows))


N2 = "n = 2\nh = 0.125\ng = harmonic:coeffs=1;0.2\n"


def test_cli_diagnose_profiles_the_face_origin_at_n2(tmp_path, capsys):
    cfgfile = tmp_path / "n2.cfg"
    cfgfile.write_text(N2 + f"output = {tmp_path / 'n2'}\n")
    assert main(["diagnose", str(cfgfile)]) == 0
    assert [n for n in os.listdir(tmp_path / "n2") if n.startswith("profile_")] == [
        "profile_+0.0000.csv"]
    profile, = json.loads((tmp_path / "n2" / "summary.json").read_text())["profiles"].values()
    assert profile["center"] == 0.0 and len(profile["radii"]) > 0
    cfgfile.write_text(N2 + "centers = 0.1\n")
    assert main(["diagnose", str(cfgfile)]) == 2
    assert "'centers'" in capsys.readouterr().err


def test_cli_blowup_at_n2_is_a_config_error_naming_n(tmp_path, capsys):
    cfgfile = tmp_path / "n2.cfg"
    cfgfile.write_text(N2 + f"output = {tmp_path / 'n2'}\n")
    assert main(["blowup", str(cfgfile)]) == 2
    assert "key 'n'" in capsys.readouterr().err
    assert not (tmp_path / "n2").exists()


def test_cli_and_verify_do_not_import_scipy_integrate():
    code = ("import sys, bilaplab.cli, bilaplab.verify\n"
            "print('scipy.integrate' in sys.modules)\n")
    src = str(Path(bilaplab.config.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr[-400:]
    assert child.stdout.strip() == "False"


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("BILAPLAB_OUTPUT_ROOT", str(tmp_path))
    assert output_root() == tmp_path
    cfg = parse_config(BASE)
    out = run(cfg)
    assert out == tmp_path / "runs" / cfg.digest
    assert (out / "summary.json").exists()


def test_cli_stage_selection(tmp_path, monkeypatch):
    monkeypatch.setenv("BILAPLAB_OUTPUT_ROOT", str(tmp_path))
    cfgfile = tmp_path / "case.cfg"
    cfgfile.write_text(BASE)

    assert main(["solve", str(cfgfile)]) == 0
    solve_dirs = sorted((tmp_path / "runs").iterdir())
    assert len(solve_dirs) == 1
    solve_names = set(os.listdir(solve_dirs[0]))
    assert "fields.csv" in solve_names
    assert "gamma.csv" not in solve_names
    assert not any(n.startswith("profile_") for n in solve_names)

    assert main(["diagnose", str(cfgfile)]) == 0
    assert main(["blowup", str(cfgfile)]) == 0
    all_names = set()
    for d in (tmp_path / "runs").iterdir():
        all_names |= set(os.listdir(d))
    assert "profile_+0.0000.csv" in all_names
    assert "gamma.csv" in all_names


def test_config_stages_narrow_the_command(tmp_path, monkeypatch):
    monkeypatch.setenv("BILAPLAB_OUTPUT_ROOT", str(tmp_path))
    narrowed = tmp_path / "narrowed.cfg"
    narrowed.write_text("h = 0.125\ng = harmonic:deg=1\nstages = solve\n")
    assert main(["diagnose", str(narrowed)]) == 0
    run_dir, = (tmp_path / "runs").iterdir()
    assert not any(n.startswith("profile_") for n in os.listdir(run_dir))
    assert "stages = solve\n" in (run_dir / "config.txt").read_text()
    solve = json.loads((run_dir / "summary.json").read_text())["solve"]
    assert 0 < solve["cg_iterations"] <= 10 * solve["iterations"]

    # without the key the command's own stages run, under the same digest as before
    plain = tmp_path / "plain.cfg"
    plain.write_text("h = 0.125\ng = harmonic:deg=1\n")
    assert main(["diagnose", str(plain)]) == 0
    expected = parse_config("h = 0.125\ng = harmonic:deg=1\nstages = solve,profile\n").digest
    assert "profile_+0.0000.csv" in os.listdir(tmp_path / "runs" / expected)


def test_cli_missing_config_file(capsys):
    assert main(["solve", "/nonexistent/case.cfg"]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_invalid_config_value(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("p = 0.5\n")
    assert main(["solve", str(cfgfile)]) == 2
    assert "'p'" in capsys.readouterr().err


def test_cli_extension_check(capsys):
    assert main(["extension-check", "--modes", "1,2,3", "--height", "12"]) == 0
    out = capsys.readouterr().out
    assert "spread" in out
    assert main(["extension-check", "--modes", "1,x"]) == 2
    assert main(["extension-check", "--modes", "0"]) == 2
    # the strip's input rules are usage errors naming the option; 65 is the
    # least whole height over the cap, and no huge height is ever run
    for option, value in [("--height", "nan"), ("--height", "inf"), ("--height", "4"),
                          ("--height", "65"), ("--modes", "40")]:
        capsys.readouterr()
        assert main(["extension-check", option, value]) == 2, value
        assert f"error: {option}: " in capsys.readouterr().err


def test_cli_rejects_unknown_verify_level():
    with pytest.raises(SystemExit):
        main(["verify", "--level", "later"])


def test_main_builds_one_parser_for_every_call(monkeypatch, capsys):
    """The parser is built on the first call and serves the later ones, with
    the same output, usage errors and exit codes."""
    import argparse

    import bilaplab.cli

    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(k.get("prog")) or init(self, *a, **k))
    bilaplab.cli.build_parser.cache_clear()
    assert main(["extension-check", "--modes", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["extension-check", "--modes", "1"]) == 0
    assert capsys.readouterr().out == first
    assert main(["extension-check", "--modes", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--level", "later"])
    assert exc.value.code == 2
    assert "invalid choice: 'later'" in capsys.readouterr().err
    assert built.count("bilaplab") == 1


def _passing_stub(level="quick"):
    return verify.CheckResult("stub pass", "-", "-", True)


def _failing_stub(level="quick"):
    return verify.CheckResult("stub fail", "-", "-", False)


def test_cli_verify_exit_codes(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [_passing_stub])
    assert main(["verify", "--level", "quick"]) == 0
    monkeypatch.setattr(verify, "ALL_CHECKS", [_passing_stub, _failing_stub])
    assert main(["verify", "--level", "quick"]) == 1


def test_verify_prints_each_checks_wall_time(monkeypatch):
    monkeypatch.setattr(verify, "ALL_CHECKS", [_passing_stub, _failing_stub])
    buf = io.StringIO()
    assert verify.run_suite("quick", stream=buf) == 1
    lines = buf.getvalue().splitlines()
    assert re.search(r"  \[pass\]  \d+\.\d\d s$", lines[1])
    assert re.search(r"  \[FAIL\]  \d+\.\d\d s$", lines[2])
    assert lines[-1] == "1/2 checks passed; failing: stub fail"


def _clear_corpus_caches():
    for fn in (verify.corpus_spec, verify.corpus_solve,
               verify.corpus_oracle, verify.corpus_points):
        fn.cache_clear()


def test_sign_flip_mutation_is_caught(monkeypatch):
    """Flipping the thin reaction makes the monotonicity and residual
    checks fail, so the suite exits 1: the trap the suite must spring."""
    true_reaction = bilaplab.problem.thin_reaction

    def flipped(t, spec):
        return -true_reaction(t, spec)

    _clear_corpus_caches()
    try:
        for mod in (bilaplab.problem, bilaplab.solver, bilaplab.diagnostics):
            monkeypatch.setattr(mod, "thin_reaction", flipped)
        monkeypatch.setattr(verify, "ALL_CHECKS", [
            verify.check_almgren_monotonicity,
            verify.check_weak_residual_refinement,
        ])
        buf = io.StringIO()
        assert verify.run_suite("quick", stream=buf) == 1
        text = buf.getvalue()
        assert text.count("[FAIL]") == 2
        assert "0/2 checks passed" in text
    finally:
        monkeypatch.undo()
        _clear_corpus_caches()
