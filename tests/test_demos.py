"""Every demo script runs to the end.

The demos call the public API (cut_data, and split_at_cuts and
middle_between_cuts on its CutData, CutData fields, inserted_value,
expected_node_counts, ...), so a renamed or removed name shows up here rather
than in a reader's terminal.  Each script runs in-process, as `__main__`, with
its output captured; none of them writes files.
"""
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
