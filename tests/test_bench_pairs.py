"""``scripts/bench_pairs.py`` applies the claim rule to every pair it ran."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change):
    """One run per side and seed; a value of None is a failed run."""
    runs = []
    for side, values in (("parent", parent), ("change", change)):
        for seed, value in enumerate(values):
            run = {"workload": "w", "seed": seed, "side": side, "exit_code": 1}
            if value is not None:
                run.update(exit_code=0, result={"correct": True,
                                                "metrics": {"total_s": {"value": value}}})
            runs.append(run)
    return runs


def _summary(bench_pairs, parent, change):
    return bench_pairs.summarize(_runs(parent, change), ["w"], ["total_s"])["w"]


def test_a_change_lower_in_every_pair_shows_a_gain(bench_pairs):
    entry = _summary(bench_pairs, [1.0 + i / 100 for i in range(10)], [0.5] * 10)
    assert entry["pairs"] == 10
    assert entry["failed"] == {"parent": 0, "change": 0}
    assert entry["total_s"]["change_lower_in_pairs"] == 10
    assert entry["total_s"]["gain_shown"] is True


def test_failed_change_runs_count_as_no_win(bench_pairs):
    # Seven wins by a wide margin, but three of ten change runs failed.
    entry = _summary(bench_pairs, [1.0 + i / 100 for i in range(10)], [None] * 3 + [0.5] * 7)
    assert entry["pairs"] == 10
    assert entry["failed"] == {"parent": 0, "change": 3}
    assert entry["total_s"]["change_lower_in_pairs"] == 7
    assert entry["total_s"]["gain_shown"] is False


def test_a_change_that_fails_more_runs_than_the_parent_shows_no_gain(bench_pairs):
    # Nine wins of ten pairs would hold, were the one failed run the parent's.
    parent = [1.0 + i / 100 for i in range(10)]
    assert _summary(bench_pairs, parent[:9] + [None], [0.5] * 10)["total_s"]["gain_shown"]
    entry = _summary(bench_pairs, parent, [0.5] * 9 + [None])
    assert entry["total_s"]["change_lower_in_pairs"] == 9
    assert entry["total_s"]["gain_shown"] is False
