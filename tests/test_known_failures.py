"""Known failures of the estimator, pinned as they fail today.

Each test names its ROADMAP item and asserts that its case still fails the
same way, so a fix shows up as a change to this file.  Never re-seed or
resize these cases to make them pass (ROADMAP item 18): a fix changes the
assertion to the correct behaviour.
"""
import importlib.util
from pathlib import Path

import pytest

from dncsim import dnc, geomcircuit as gc, oracle, synthesis as syn
from dncsim.harness import generate_circuit

# perfbench's dense-free reference values, loaded by path (perfbench is not a package)
_spec = importlib.util.spec_from_file_location(
    "perfbench_references", Path(__file__).resolve().parents[1] / "perfbench" / "references.py"
)
references = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(references)

DESK = dnc.DncConfig(profile="desk", cap=24)


def test_item_1_none_heavy_returns_zero_on_a_product_chain_of_value_one_half():
    # the scan finds its one slice light and returns 0.0, which misses the
    # exact value by more than delta = 0.2
    circ = generate_circuit({"kind": "product", "dims": [8, 1, 1], "depth": 2, "seed": 1795169054,
                             "strength": 0.3})
    exact = references.probability_sweep(circ)
    assert exact == pytest.approx(0.49530, abs=1e-5)
    trace = dnc.TraceNode("run")
    est = dnc.a_full(syn.synthesis_of_circuit(circ), None, 0.2, 3, config=DESK, trace=trace)
    assert est == 0.0 and abs(est - exact) > 0.2
    (top,) = trace.children
    assert [n.kind for n in top.children][-1] == "none_heavy"


def test_item_6_spacing_fails_on_a_haar_chain():
    # heavy_slices calls the scan enough with one light slice, that slice lies
    # in the central region Z, and Z then holds fewer than Delta heavy slices
    circ = generate_circuit({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 2082904681,
                             "gates": "haar"})
    assert references.probability_sweep(circ) == pytest.approx(2.2775e-4, rel=1e-4)
    with pytest.raises(dnc.SpacingError, match="fewer than Delta = 2 heavy slices"):
        dnc.a_full(syn.synthesis_of_circuit(circ), None, 0.1, 3, config=DESK)


def test_item_6_the_slab_of_a_right_child_drops_its_input_state():
    # the input state of the right child lies off the slab [5, 9) of slice
    # [6, 8), and it is not normalized, so the slab's value is not the weight
    circ = generate_circuit({"kind": "brickwork", "dims": [16], "depth": 1, "seed": 4, "gates": "weak",
                             "strength": 0.2})
    right = syn.split_at_cuts(syn.cut_data(syn.synthesis_of_circuit(circ), gc.Slice(0, 2, 4), 2)).right
    sl = gc.Slice(0, 6, 8)
    slab = oracle.synthesis_value_exact(dnc.slice_weight_synthesis(right, sl))
    weight = syn.slice_weight(right, sl)
    assert slab == pytest.approx(0.994255, abs=1e-6)
    assert weight == pytest.approx(0.991120, abs=1e-6)
