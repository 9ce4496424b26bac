"""The cold-process pairs runner: its commands and its summary per command."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cold_pairs.py"
_spec = importlib.util.spec_from_file_location("cold_pairs", _PATH)
cold_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_pairs)


def _run(wall_s, peak_rss_mb):
    return {"exit_code": 0, "metrics": {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb}}


def test_commands_are_verify_and_asym_p2_diagnose_and_blowup_at_three_steps():
    names = [name for name, _, _ in cold_pairs.commands()]
    assert names == ["verify-quick"] + [f"{c}-asym-p2-h{k}" for c in ("diagnose", "blowup")
                                        for k in (32, 64, 128)] + ["solve-asym-p2-n2-h16"]
    for name, args, config in cold_pairs.commands()[1:-1]:
        assert args == [name.split("-")[0]]
        assert "g = harmonic:coeffs=1;0.2\n" in config
        assert config.endswith(f"h = {1 / int(name.rsplit('h', 1)[1])!r}\n")
    name, args, config = cold_pairs.commands()[-1]
    assert args == ["solve"] and "g = harmonic:coeffs=1;0.2\n" in config
    assert config.endswith("n = 2\nh = 0.0625\n")


def test_summary_counts_the_pairs_in_which_the_change_is_lower():
    parent = [_run(1.2, 97.0), _run(1.0, 97.5), _run(1.1, 96.9)]
    change = [_run(1.1, 84.0), _run(1.3, 84.5), _run(1.1, 96.9)]
    out = cold_pairs.summarize(parent, change, cold_pairs.METRICS)
    # a tie (pair 3) counts for neither side
    assert out["change_wins"] == {"wall_s": 1, "peak_rss_mb": 2}
    assert out["change"]["peak_rss_mb"] == {"median": 84.5, "q1": 84.25, "q3": 90.7}
    assert set(out["parent"]) == {"runs", "wall_s", "peak_rss_mb"}
