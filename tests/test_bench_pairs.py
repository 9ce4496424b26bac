"""The pairs runner's statistics: quartiles per side and wins per metric."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(op_s, ops_per_s):
    return {"correct": True, "attempted": 17, "failed": 0, "machine_kernel_s": 0.04,
            "metrics": {"setup_s": 1.0, "op_s": op_s, "ops_per_s": ops_per_s,
                        "peak_rss_mb": 95.0}}


def test_wins_follow_each_metric_direction():
    parent = [_run(0.07, 2.0), _run(0.06, 2.5), _run(0.08, 2.2)]
    change = [_run(0.05, 14.0), _run(0.07, 15.0), _run(0.07, 2.2)]
    out = bench_pairs.summarize(parent, change)
    # lower op_s wins pairs 1 and 3; higher ops_per_s wins pairs 1 and 2; ties count for neither
    assert out["change_wins"] == {"setup_s": 0, "op_s": 2, "ops_per_s": 2, "peak_rss_mb": 0}
    assert out["parent"]["runs"] is parent and out["change"]["runs"] is change


def test_quartiles_are_inclusive():
    q = bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    with pytest.raises(statistics.StatisticsError):
        bench_pairs.quartiles([1.0])
