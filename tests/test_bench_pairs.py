"""The verdicts that ``tools/bench_pairs.py`` stores per workload and metric."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # IQR 0.03 on a median of 1


def pairs(change, parent=PARENT):
    return [{"parent": {m: p for m in bench_pairs.METRICS},
             "change": {m: c for m in bench_pairs.METRICS}} for p, c in zip(parent, change)]


@pytest.mark.parametrize("change, want", [
    ([0.70] * 10, "gain"),
    ([0.70] * 9 + [1.10], "gain"),  # nine of ten pairs lower
    ([0.70] * 8 + [1.10] * 2, "no worse"),  # eight of ten: no gain
    ([0.99, 1.01, 0.97, 1.00, 0.98, 1.02, 0.96, 0.99, 1.01, 0.97], "no worse"),  # inside the IQR
    ([1.30] * 10, "worse"),
    ([1.20] * 10, "no worse"),  # within the 0.25 bound
], ids=["all-lower", "nine-of-ten", "eight-of-ten", "inside-iqr", "worse", "within-bound"])
def test_verdicts(change, want):
    bounds = {m: 0.25 for m in bench_pairs.METRICS}
    summary = bench_pairs.summarize(pairs(change), bounds, "synthetic")
    assert {m: v["verdict"] for m, v in summary.items()} == {m: want for m in bench_pairs.METRICS}


def test_wide_parent_spread_is_unresolved():
    parent = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]  # IQR 0.4 on a median of 1
    assert bench_pairs.verdict(parent, [1.05] * 10, 0.25) == "unresolved"
    # unless every run of the change is lower than every run of the parent
    assert bench_pairs.verdict(parent, [0.5] * 10, 0.25) != "unresolved"
    # a median beyond the bound is worse whatever the spread
    assert bench_pairs.verdict(parent, [1.3] * 10, 0.25) == "worse"
