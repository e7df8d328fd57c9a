"""`tools/ab_pairs.py`'s verdicts on synthetic runs.

The tool backs every A/B performance record; these tests check its flags and
win counts on made-up metric values.  The module is loaded by path, and
nothing here runs the benchmark, a subprocess or git.
"""
import importlib.util
from pathlib import Path

import pytest

AB_PAIRS = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", AB_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_ab_pairs()
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # median 1.0, narrow


def scaled(xs, factor):
    return [x * factor for x in xs]


@pytest.mark.parametrize("lower", [True, False])
def test_a_change_past_the_bound_is_worse(lower):
    # 30% slower (lower is better) or 30% fewer per second (higher is better)
    change = scaled(PARENT, 1.3 if lower else 0.7)
    worse, flag = ab.verdict(PARENT, change, lower, 0.25)
    assert flag == "worse"
    assert worse == pytest.approx(0.3)


@pytest.mark.parametrize("lower", [True, False])
def test_a_change_within_the_bound_is_ok(lower):
    change = scaled(PARENT, 1.1 if lower else 0.9)
    worse, flag = ab.verdict(PARENT, change, lower, 0.25)
    assert flag == "ok"
    assert worse == pytest.approx(0.1)
    # a better median gives a negative change
    worse, flag = ab.verdict(PARENT, scaled(PARENT, 0.9 if lower else 1.1), lower, 0.25)
    assert flag == "ok" and worse == pytest.approx(-0.1)


@pytest.mark.parametrize("lower", [True, False])
def test_a_wide_parent_spread_is_unresolved_unless_every_change_run_wins(lower):
    wide = [0.5, 0.7, 1.0, 1.0, 1.3, 1.5, 0.6, 1.4, 1.0, 1.0]  # quartile distance 0.55 of median 1.0
    q1, med, q3 = ab.quartiles(wide)
    assert (q3 - q1) / med > 0.25
    assert ab.verdict(wide, list(wide), lower, 0.25)[1] == "unresolved"
    # every change run beats every parent run: resolved
    best = scaled([1.0] * 10, 0.4 if lower else 1.6)
    assert ab.verdict(wide, best, lower, 0.25)[1] == "ok"
    # a median past the bound is worse whatever the spread
    assert ab.verdict(wide, scaled(wide, 1.5 if lower else 0.5), lower, 0.25)[1] == "worse"


def test_summarize_counts_wins_in_the_direction_of_each_metric():
    def run(setup, rate):
        return {"metrics": {"setup_s": {"value": setup, "unit": "s"},
                            "estimates_per_s": {"value": rate, "unit": "1/s"}}}

    # the change is faster to set up in 3 of 4 pairs and has a higher rate in 1
    setups = [(1.0, 0.9), (1.0, 0.95), (1.0, 1.1), (1.0, 0.8)]
    rates = [(10.0, 9.0), (10.0, 11.0), (10.0, 10.0), (10.0, 9.5)]
    pairs = [{"parent": run(ps, pr), "change": run(cs, cr)} for (ps, cs), (pr, cr) in zip(setups, rates)]
    summary = ab.summarize(pairs, {"setup_s": "lower", "estimates_per_s": "higher"},
                           {"setup_s": 0.25, "estimates_per_s": 0.24})
    setup, rate = summary["setup_s"], summary["estimates_per_s"]
    assert (setup["wins"], setup["pairs"], setup["better"]) == (3, 4, "lower")
    assert (rate["wins"], rate["pairs"], rate["better"]) == (1, 4, "higher")
    assert setup["parent"]["median"] == 1.0 and setup["change"]["median"] == pytest.approx(0.925)
    assert setup["worse_by"] == pytest.approx(-0.075) and setup["flag"] == "ok"
    assert rate["worse_by"] == pytest.approx(0.025) and rate["flag"] == "ok"
    assert setup["bound"] == 0.25 and rate["bound"] == 0.24


def test_both_sides_are_checked_out_as_siblings_with_paths_of_one_length(tmp_path):
    # a side whose checkout lies elsewhere, or at a longer path, ran
    # measurably differently with the same code
    sides = ab.checkout_paths(tmp_path)
    assert set(sides) == {"parent", "change"}
    parent, change = sides["parent"], sides["change"]
    assert parent != change and parent.parent == change.parent == tmp_path
    assert len(str(parent)) == len(str(change))
