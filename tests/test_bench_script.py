"""The pair summary of scripts/bench.py, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

METRICS = [{"name": "ops_per_s_cal", "better": "higher", "bound": 0.25},
           {"name": "op_ms_cal.p50", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
           {"name": "ok_ratio", "better": "higher", "bound": 0.01}]


def pair(workload, base, change):
    names = [m["name"] for m in METRICS]
    return {"workload": workload, "base": dict(zip(names, base)),
            "change": dict(zip(names, change))}


PAIRS = [
    pair("verify_sets", (60.0, 16.0, 45.0, 1.0), (90.0, 11.0, 46.0, 1.0)),
    pair("verify_sets", (58.0, 17.0, 45.0, 1.0), (92.0, 11.5, 46.5, 1.0)),
    pair("verify_sets", (62.0, 16.5, 45.0, 1.0), (59.0, 16.0, 47.5, 1.0)),
    pair("verify_sets", (61.0, 16.2, 45.0, 1.0), (91.0, 10.8, 46.0, 1.0)),
    pair("walk_long", (10.0, 100.0, 40.0, 1.0), (9.0, 110.0, 40.0, 0.5)),
]


def test_quartiles_interpolate_between_order_statistics():
    assert bench.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert bench.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_counts_wins_by_the_better_direction():
    out = bench.summarize(PAIRS, METRICS)
    assert list(out) == ["verify_sets", "walk_long"]
    ops = out["verify_sets"]["ops_per_s_cal"]
    assert ops["pairs"] == 4 and ops["wins"] == 3
    assert ops["base"] == (59.5, 60.5, 61.25)
    assert ops["change"] == (82.25, 90.5, 91.25)
    assert ops["rel"] == pytest.approx(90.5 / 60.5 - 1.0)
    assert ops["beats_iqr"] and not ops["worse_than_bound"]
    p50 = out["verify_sets"]["op_ms_cal.p50"]
    assert p50["wins"] == 4 and p50["beats_iqr"] and not p50["worse_than_bound"]


def test_summary_flags_a_move_past_the_bound():
    out = bench.summarize(PAIRS, METRICS)
    rss = out["verify_sets"]["peak_rss_mb"]
    assert rss["wins"] == 0 and rss["rel"] == pytest.approx(46.25 / 45.0 - 1.0)
    assert not rss["worse_than_bound"]  # +2.8% is inside the 5% bound
    walk = out["walk_long"]
    assert walk["ok_ratio"]["worse_than_bound"] and walk["ok_ratio"]["wins"] == 0
    assert not walk["ops_per_s_cal"]["worse_than_bound"]  # -10% is inside the 25% bound
    assert walk["op_ms_cal.p50"]["rel"] == pytest.approx(0.1)
    assert not out["verify_sets"]["ok_ratio"]["beats_iqr"]  # equal medians gain nothing
