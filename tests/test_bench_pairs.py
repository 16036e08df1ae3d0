"""The verdict rule of scripts/bench_pairs.py, on synthetic paired runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict = load_bench_pairs().verdict

#: Ten parent runs around 10.0: inclusive quartiles 9.925 and 10.075, IQR 0.15.
PARENT = [9.8, 9.9, 9.9, 10.0, 10.0, 10.0, 10.0, 10.1, 10.1, 10.2]


def shifted(runs, by, pairs=range(10)):
    return [v + by if i in pairs else v for i, v in enumerate(runs)]


class TestClaim:
    def test_holds_with_every_pair_won_by_more_than_the_iqr(self):
        assert verdict(PARENT, shifted(PARENT, -0.5), "lower", 0.1, claimed=True) == "holds"

    def test_nine_wins_and_a_tie_hold(self):
        change = shifted(PARENT, -0.5, pairs=range(9))
        assert verdict(PARENT, change, "lower", 0.1, claimed=True) == "holds"

    def test_ties_count_for_neither_side(self):
        change = shifted(PARENT, -0.5, pairs=range(8))
        assert verdict(PARENT, change, "lower", 0.1, claimed=True) == "not met"

    def test_a_gain_inside_the_parent_iqr_is_not_met(self):
        assert verdict(PARENT, shifted(PARENT, -0.1), "lower", 0.1, claimed=True) == "not met"

    def test_higher_is_better(self):
        assert verdict(PARENT, shifted(PARENT, 0.5), "higher", 0.1, claimed=True) == "holds"
        assert verdict(PARENT, shifted(PARENT, -0.5), "higher", None, claimed=True) == "not met"


class TestBound:
    @pytest.mark.parametrize("better,by", [("lower", 1.5), ("higher", -1.5)])
    def test_worse_than_bound(self, better, by):
        change = shifted(PARENT, by)
        assert verdict(PARENT, change, better, 0.1) == "WORSE THAN BOUND"
        assert verdict(PARENT, change, better, 0.1, claimed=True) == "WORSE THAN BOUND"

    def test_worse_by_less_than_the_bound_is_within(self):
        assert verdict(PARENT, shifted(PARENT, 0.5), "lower", 0.1) == "within bound"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [6.0, 7.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 13.0, 14.0]
        assert verdict(wide, wide, "lower", 0.1) == "UNRESOLVED"

    def test_wide_spread_beaten_by_every_run_is_resolved(self):
        wide = [6.0, 7.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 13.0, 14.0]
        change = [5.9 - i * 0.1 for i in range(10)]
        assert verdict(wide, change, "lower", 0.1) == "within bound"

    def test_metric_without_a_bound(self):
        assert verdict(PARENT, shifted(PARENT, 5.0), "lower") == "no bound"
