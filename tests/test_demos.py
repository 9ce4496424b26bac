"""The demos are the package's outside callers: each runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bilaplab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_three_demos_are_found():
    assert [d.name for d in DEMOS] == ["extension_identity.py", "free_boundary_tour.py",
                                       "solve_and_profile.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_cleanly(demo):
    src = str(Path(bilaplab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                           text=True, timeout=300)
    assert child.returncode == 0, child.stderr[-400:]
    assert child.stdout.strip()
