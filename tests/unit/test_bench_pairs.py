"""tools/bench_pairs.py: the verdict rule (choosing-metrics §8), pinned.

The tool's runs take minutes; its decision is a pure function of the
two series, the metric's direction and its declared bound.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [0.160, 0.150, 0.170, 0.155, 0.165, 0.158, 0.162, 0.149, 0.171, 0.160]


def test_quartiles_of_one_run_and_of_many():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_parents_iqr():
    change = [p * 0.4 for p in PARENT]
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25) == (10, "gain")
    # better in only 8 of 10 pairs: not a gain, whatever the medians say
    change[0], change[1] = 0.30, 0.31
    won, word = bench_pairs.verdict(PARENT, change, "lower", 0.25)
    assert won == 8 and word != "gain"
    # wins every pair, but by less than the parent's own quartile distance
    change = [p - 0.001 for p in PARENT]
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25) \
        == (10, "no difference")


def test_direction_follows_the_metric():
    higher = [p * 2 for p in PARENT]
    assert bench_pairs.verdict(PARENT, higher, "higher", 0.1) == (10, "gain")
    won, word = bench_pairs.verdict(PARENT, higher, "lower", 0.1)
    assert won == 0 and word.startswith("regression: worse by 100.0%")


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] = PARENT[0] / 2
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25) \
        == (1, "no difference")


def test_wide_spread_is_unresolved_not_unchanged():
    parent = [1.0, 1.4, 0.7, 1.3, 0.8, 1.0, 1.5, 0.6, 1.1, 0.9]
    change = [1.1, 0.9, 1.2, 0.8, 1.3, 0.7, 1.0, 1.4, 0.6, 1.0]
    assert bench_pairs.verdict(parent, change, "lower", 0.1)[1] \
        == "unresolved: spread exceeds bound"
    # ... unless every run of the change beats every run of the parent:
    # still short of a gain (medians closer than the parent's quartile
    # distance), but "no worse than the bound" is resolved
    better = [0.59 - 0.001 * i for i in range(10)]
    assert bench_pairs.verdict(parent, better, "lower", 0.1) \
        == (10, "no difference")


@pytest.mark.parametrize("change, word", [
    ([p * 1.05 for p in PARENT], "no difference"),
    ([p * 1.5 for p in PARENT], "regression: worse by 50.0% (bound 25%)"),
])
def test_regression_is_the_declared_bound(change, word):
    assert bench_pairs.verdict(PARENT, change, "lower", 0.25)[1] == word
