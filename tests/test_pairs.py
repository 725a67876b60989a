"""The verdicts of benchruns/pairs.py on synthetic run lists."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "benchruns" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [40.0, 41.0, 39.5, 40.5, 40.2, 39.8, 40.8, 39.9, 40.1, 40.6]  # IQR 0.6


def test_gain_needs_ten_pairs_nine_tenths_won_and_gap_beyond_parent_iqr():
    doubled = [2 * x for x in PARENT]
    assert pairs.verdict(PARENT, doubled, 0.25, True) == "gain"
    # lower is better: halved latencies are a gain
    assert pairs.verdict(PARENT, [x / 2 for x in PARENT], 0.25, False) == "gain"
    # five wins of five pairs are too few pairs to claim a gain
    assert pairs.verdict(PARENT[:5], doubled[:5], 0.25, True) == "ok"
    # eight wins of ten are not enough
    eight = doubled[:8] + [PARENT[8] - 1, PARENT[9] - 1]
    assert pairs.verdict(PARENT, eight, 0.25, True) == "ok"
    # nine wins, but a gap inside the parent's IQR
    small = [x + 0.2 for x in PARENT[:9]] + [PARENT[9] - 1]
    assert pairs.worse_and_wins(PARENT, small, True)[1] == 9
    assert pairs.verdict(PARENT, small, 0.25, True) == "ok"


def test_ok_unresolved_and_worse():
    assert pairs.verdict(PARENT, list(PARENT), 0.25, True) == "ok"
    wide = [10.0, 30.0, 20.0, 12.0, 28.0, 15.0, 25.0, 18.0, 22.0, 20.0]
    assert pairs.verdict(wide, [x * 0.95 for x in wide], 0.25, True) == "unresolved"
    assert pairs.verdict(PARENT, [x * 0.7 for x in PARENT], 0.25, True) == "WORSE"
    assert pairs.verdict(PARENT, [x * 1.3 for x in PARENT], 0.25, False) == "WORSE"
    assert pairs.worse_and_wins(PARENT, [x * 0.7 for x in PARENT], True)[0] > 0.25
