"""The pair statistics of tools/bench_pairs.py on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"unit": "s", "better": "lower", "bound": 0.25}


def test_spread_uses_inclusive_quartiles():
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [1.0, 2.0, 3.0, 4.0, 5.0]
    }


def test_claim_met_on_clear_gain():
    parent = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
    change = [x * 1.4 for x in parent]
    out = bench_pairs.compare_metric(HIGHER, parent, change, claimed=True)
    assert (out["change_wins"], out["ties"]) == (10, 0)
    assert out["change_vs_parent"] == pytest.approx(0.4)
    assert out["bound_check"] == "within" and out["claim_met"]


def test_claim_not_met_inside_parent_spread():
    parent = [1.0, 2.0, 1.0, 2.0]
    change = [1.1, 2.1, 1.1, 2.1]  # wins every pair, but by less than the parent's IQR
    out = bench_pairs.compare_metric(HIGHER, parent, change, claimed=True)
    assert out["change_wins"] == 4 and not out["claim_met"]


def test_bound_and_ties_for_lower_is_better():
    out = bench_pairs.compare_metric(LOWER, [1.0, 1.0, 1.0], [1.3, 1.0, 1.3], claimed=False)
    assert (out["change_wins"], out["ties"]) == (0, 1)
    assert out["bound_check"] == "worse"
    assert "claim_met" not in out


def test_bound_unresolved_when_parent_spread_exceeds_bound():
    parent = [1.0, 1.5, 1.0, 1.5]  # IQR 0.5 > 25 % of the median 1.25
    out = bench_pairs.compare_metric(HIGHER, parent, [1.1, 1.4, 1.2, 1.3], claimed=False)
    assert out["change_vs_parent"] == 0.0 and out["bound_check"] == "unresolved"
    # every change run beating every parent run settles it despite the spread
    out = bench_pairs.compare_metric(HIGHER, parent, [1.6, 1.7, 1.6, 1.7], claimed=False)
    assert out["bound_check"] == "within"
    out = bench_pairs.compare_metric(LOWER, parent, [0.9, 0.8, 0.9, 0.8], claimed=False)
    assert out["bound_check"] == "within"
