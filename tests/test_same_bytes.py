"""The same-bytes command's comparison of two artifact trees."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_differing_lists_changed_and_one_sided_files(tmp_path):
    common = {"a/summary.json": b"{}\n", "a/fields.csv": b"x,y\n0.0,1.0\n",
              "exit_codes.json": b'{"a": 0}\n'}
    base = _tree(tmp_path / "base", {**common, "b/gamma.csv": b"x\n", "c/old.csv": b""})
    change = _tree(tmp_path / "change", {**common, "b/gamma.csv": b"x\n\n",
                                         "d/new.csv": b""})
    assert same_bytes.differing(base, change) == (6, ["b/gamma.csv", "c/old.csv", "d/new.csv"])
    assert same_bytes.differing(base, tmp_path / "base") == (5, [])


def test_describe_shows_the_first_differing_line_of_each_side(tmp_path):
    """A moved figure shows in one run: the first line where a text file
    differs, as each side has it; a line one side lacks, a file on one side
    only or a file that is not UTF-8 text get no line or only the name."""
    quick = "acceptance suite, level=quick\n 3. frequency  max |N0 - mu| = {}  [pass]\n12/12\n"
    base = _tree(tmp_path / "base", {"verify-quick.txt": quick.format("1.24e-11").encode(),
                                     "short.txt": b"a\nb\n", "old.csv": b"x\n",
                                     "blob.bin": b"\xff\x00"})
    change = _tree(tmp_path / "change", {"verify-quick.txt": quick.format("1.55e-14").encode(),
                                         "short.txt": b"a\nb\nc\n", "blob.bin": b"\xff\x01"})
    assert same_bytes.describe(base, change, "verify-quick.txt") == [
        "differs: verify-quick.txt",
        "  base   line 2:  3. frequency  max |N0 - mu| = 1.24e-11  [pass]",
        "  change line 2:  3. frequency  max |N0 - mu| = 1.55e-14  [pass]"]
    assert same_bytes.describe(base, change, "short.txt") == [
        "differs: short.txt", "  base   line 3: (no line)", "  change line 3: c"]
    assert same_bytes.describe(base, change, "old.csv") == ["differs: old.csv"]
    assert same_bytes.describe(base, change, "blob.bin") == ["differs: blob.bin"]


def test_transcribe_keeps_the_extension_outputs(tmp_path):
    """The extension-check, demo, oracle and config-error transcripts are
    compared, each with its exit code; they carry no wall time, so
    `strip_times` leaves them as printed."""
    names = [name for name, _ in same_bytes.TRANSCRIPTS]
    assert len(set(names)) == len(names)
    extension = [(name, argv) for name, argv in same_bytes.TRANSCRIPTS
                 if not name.startswith("verify-")]
    assert [name for name, _ in extension] == [
        "extension-check.txt", "extension-check-modes-1,2,3,5,8-height-16.txt",
        "demo-extension_identity.txt", "demo-free_boundary_tour.txt",
        "demo-solve_and_profile.txt", "oracle.txt", "config-errors.txt"]
    same_bytes.transcribe(_PATH.parent.parent, tmp_path, extension)
    codes = json.loads((tmp_path / "transcript_exit_codes.json").read_text())
    assert list(codes.values()) == [0, 0, 0, 0, 0, 0, 0]
    default = (tmp_path / "extension-check.txt").read_text().splitlines()
    assert [line.split()[0] for line in default[1:4]] == ["1", "2", "3"]
    assert default[-2] == "spread 0.002913 (target <= 0.02): pass"
    wide = (tmp_path / "extension-check-modes-1,2,3,5,8-height-16.txt").read_text()
    assert [line.split()[0] for line in wide.splitlines()[1:6]] == ["1", "2", "3", "5", "8"]
    # modes 5 and 8 are solved on finer heights than 1, 2 and 3
    assert "spread 0.002919 (target <= 0.02): pass\n" in wide
    demo = (tmp_path / "demo-extension_identity.txt").read_text()
    assert demo.startswith("strip resolution: 256 x 490, height 12.0\n")
    assert "calibrated constant: 1.996578 (target 2)" in demo
    # the demos that profile and analyze free-boundary points, down to h = 1/64
    tour = (tmp_path / "demo-free_boundary_tour.txt").read_text()
    assert tour.count("h = 1/64: 1 free-boundary point(s)\n") == 2
    assert "mu_hat  0.9970  mu_int 1" in tour
    profile = (tmp_path / "demo-solve_and_profile.txt").read_text()
    assert "frequency at r -> 0  0.9933 (nearest integer: 1)\n" in profile
    # the oracle on eight coarse problems, each within check 1's bounds of Newton
    oracle = [line.rsplit(" ", 5) for line in
              (tmp_path / "oracle.txt").read_text().splitlines()]
    assert [row[0] for row in oracle] == [
        "sym-p2 h=1/8", "sym-p2 h=1/16", "asym-p2 h=1/8", "asym-p2 h=1/16", "sym-p3 h=1/8",
        "sym-p3 h=1/16", "asym-p2 p=1.5 h=1/8", "asym-p2 p=1.25 h=1/8"]
    assert all(float(row[3]) <= 1e-10 and float(row[4]) <= 1e-6 for row in oracle)
    assert all(abs(float(row[5]) - float(row[1])) <= 1e-8 * abs(float(row[1]))
               for row in oracle)
    # every config of the list is refused by a ConfigError, the steep datum by its key
    errors = (tmp_path / "config-errors.txt").read_text().splitlines()
    assert [line.split(" ConfigError: ")[0] for line in errors] == [
        repr(text) for text in same_bytes.CONFIG_TEXTS]
    assert errors[-4].endswith("key 'g': harmonic parameter 'deg' reaches degree 200, "
                               "above the cap 40")
    assert all(line.endswith("key 'g': boundary datum overflows on the closed unit half-ball")
               for line in errors[-3:])


def test_strip_times_drops_only_the_time_that_ends_a_check_line():
    transcript = ("acceptance suite, level=quick\n"
                  " 1. oracle equivalence  energy rel <= 1e-8  energy rel 2.1e-12  [pass]  0.53 s\n"
                  "10. integral identities  m=512  max res 1.40e-04  [pass]  12.07 s\n"
                  "12/12 checks passed\n")
    assert same_bytes.strip_times(transcript) == (
        "acceptance suite, level=quick\n"
        " 1. oracle equivalence  energy rel <= 1e-8  energy rel 2.1e-12  [pass]\n"
        "10. integral identities  m=512  max res 1.40e-04  [pass]\n"
        "12/12 checks passed\n")
    # a time that changes is gone; a figure inside the line stays
    assert same_bytes.strip_times("a  1.00 s\n") == same_bytes.strip_times("a  2.50 s\n")
    assert same_bytes.strip_times("took 0.50 s here\n") == "took 0.50 s here\n"


def test_runs_take_every_pipeline_config_through_all_three_stages():
    """No command runs solve, profile and gamma together, so each `pipeline-n1`
    config at h = 1/32 also goes through `config.run` with every stage, and so
    do the near-edge and explicit-radii cases that reach the profile stage's
    other branches."""
    from bilaplab.config import parse_config
    from workloads import PIPELINE_CONFIGS

    all_stages = [(name, text) for name, command, text in same_bytes.runs() if command == "run"]
    assert [name for name, _ in all_stages] == [f"{tag}-h32-run" for tag in PIPELINE_CONFIGS] + [
        "near-edge-h32-run", "near-edge-h32-run-radii-2", "near-edge-h32-run-radii-1",
        "asym-p2-h32-run-explicit-radii"]
    for _, text in all_stages:
        cfg = parse_config(text)
        assert cfg.stages == ("solve", "profile", "gamma") and cfg.spec.h == 1.0 / 32


def test_the_run_command_goes_through_config_run(tmp_path):
    text = "g = harmonic:deg=1\nh = 0.125\n"
    runs = []
    for name, command in (("all", "run"), ("blowup", "blowup")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text + f"output = {tmp_path / name}\n")
        runs.append((name, [command, str(cfg)]))
    (tmp_path / "runs.json").write_text(json.dumps(runs))
    src = str(_PATH.parent.parent / "src")
    subprocess.run([sys.executable, "-c", same_bytes.DRIVER, str(tmp_path / "runs.json"),
                    str(tmp_path / "codes.json")], env={**os.environ, "PYTHONPATH": src},
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    assert json.loads((tmp_path / "codes.json").read_text()) == {"all": 0, "blowup": 0}
    assert sorted(os.listdir(tmp_path / "all")) == [
        "config.txt", "fields.csv", "gamma.csv", "profile_+0.0000.csv", "summary.json"]
    assert "profile_+0.0000.csv" not in os.listdir(tmp_path / "blowup")


def test_runs_diagnose_two_configs_at_n2_on_the_h16_lattice():
    """sym-p2 and asym-p2 are also diagnosed at n = 2, h = 1/16, where the
    ghost fill of every field box covers the most cells of any run."""
    from bilaplab.config import parse_config

    n2 = [(name, parse_config(text).spec) for name, command, text in same_bytes.runs()
          if command == "diagnose" and "-n2-h16-" in name]
    assert [name for name, _ in n2] == ["sym-p2-n2-h16-diagnose", "asym-p2-n2-h16-diagnose"]
    assert all(spec.n == 2 and spec.h == 1.0 / 16 for _, spec in n2)
