"""Runs the full acceptance battery and prints one line per criterion."""

import re

import pytest

from ordtop import acceptance
from ordtop.acceptance import CRITERIA, run_all

RESULTS = {}


def setup_module(module):
    for r in run_all(seed=0):
        RESULTS[r.number] = r
        print(r.line())


@pytest.mark.parametrize("number,name", [(n, name) for n, name, _ in CRITERIA])
def test_criterion(number, name):
    r = RESULTS[number]
    print(r.line())
    assert r.passed, r.detail


# perfbench/run.py tells budget misses from wrong answers with this regex
BUDGET_MISS = re.compile(r"took [\d.]+m?s \(budget \d+m?s\)")


def test_run_all_applies_budgets(monkeypatch):
    assert acceptance.BUDGETS == {1: 0.010, 6: 5.0, 7: 30.0, 13: 10.0}
    # a passing criterion over its budget fails with a budget-miss detail
    monkeypatch.setattr(acceptance, "BUDGETS", {5: 0.001})
    [r] = run_all(seed=0, numbers=[5])
    assert r.elapsed >= 0.001
    assert not r.passed and BUDGET_MISS.fullmatch(r.detail), r.detail
    assert r.detail.endswith("(budget 1ms)")
    # a criterion failing for another reason keeps its own detail
    monkeypatch.setattr(acceptance, "BUDGETS", {1: 0.0})
    monkeypatch.setattr(acceptance, "EXAMPLE_VALUE", "w")
    [r] = run_all(seed=0, numbers=[1])
    assert not r.passed and r.detail.startswith("got "), r.detail
