"""The summary of tools/bench_pairs.py on fixed records."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "solution_s", "unit": "s", "better": "lower"},
           {"name": "score", "unit": "count", "better": "higher"},
           {"name": "absent", "unit": "s", "better": "lower"}]


def records(values):
    """run.py result lines with the given metric values."""
    return [{"correct": True,
             "metrics": {k: {"value": x, "unit": "s"} for k, x in v.items()}}
            for v in values]


def test_medians_ratio_wins_and_interquartile_range():
    parent = records({"solution_s": s, "score": 1.0}
                     for s in (1.0, 1.1, 1.2, 1.3, 1.4))
    change = records({"solution_s": s, "score": c}
                     for s, c in ((0.8, 1.0), (1.2, 2.0), (0.85, 0.5),
                                  (0.85, 3.0), (1.0, 1.0)))
    out = bench_pairs.summarize({"w": {"parent": parent, "change": change}},
                                METRICS)["w"]
    assert set(out) == {"solution_s", "score"}  # absent on both sides
    s = out["solution_s"]
    assert s["parent_median"] == 1.2 and s["change_median"] == 0.85
    assert s["ratio"] == pytest.approx(0.85 / 1.2)
    # lower in pairs 0, 2, 3 and 4; pair 1 (1.2 against 1.1) is worse
    assert s["wins"] == 4 and s["pairs"] == 5
    # parent quartiles (exclusive method) 1.05 and 1.35, so an IQR of
    # 0.3, and 0.85 lies below 1.2 - 0.3
    assert s["parent_quartiles"] == pytest.approx([1.05, 1.35])
    assert s["beyond_parent_iqr"] is True
    c = out["score"]
    # higher is better: pairs 1 and 3 win, ties do not
    assert c["wins"] == 2 and c["ratio"] == 1.0
    assert c["beyond_parent_iqr"] is False


def test_beyond_the_interquartile_range_on_the_better_side_only():
    parent = records({"solution_s": s} for s in (1.0, 1.0, 1.0, 1.0))
    faster = records({"solution_s": 0.5} for _ in range(4))
    slower = records({"solution_s": 2.0} for _ in range(4))
    runs = {"fast": {"parent": parent, "change": faster},
            "slow": {"parent": parent, "change": slower}}
    out = bench_pairs.summarize(runs, METRICS[:1])
    assert out["fast"]["solution_s"]["beyond_parent_iqr"] is True
    assert out["fast"]["solution_s"]["wins"] == 4
    assert out["slow"]["solution_s"]["beyond_parent_iqr"] is False
    assert out["slow"]["solution_s"]["wins"] == 0


def test_a_failed_run_without_metrics_drops_its_pair():
    parent = records([{"solution_s": 1.0}, {"solution_s": 2.0}])
    change = [{"correct": False, "metrics": {}}] + records(
        [{"solution_s": 1.0}])
    s = bench_pairs.summarize({"w": {"parent": parent, "change": change}},
                              METRICS[:1])["w"]["solution_s"]
    assert s["pairs"] == 1 and s["wins"] == 1 and s["ratio"] == 0.5
