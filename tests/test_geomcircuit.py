import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dncsim import geomcircuit as gc
from dncsim.harness import generate_circuit


def cz_grid_layer(dims):
    gates = []
    for x in range(0, dims[0] - 1, 2):
        for y in range(dims[1]):
            gates.append(gc.gate("CZ", [(x, y), (x + 1, y)]))
    return gates


def test_validate_ok_nearest_neighbor_grid():
    circ = gc.circuit((4, 4), [cz_grid_layer((4, 4))])
    report = gc.validate(circ)
    assert report.ok
    assert report.violations == []


def test_validate_rejects_nonlocal_gate():
    bad = gc.circuit((4, 4), [[gc.gate("CZ", [(0, 0), (2, 0)])]])
    report = gc.validate(bad)
    assert not report.ok
    assert any("non-local" in v for v in report.violations)


def test_validate_rejects_overlapping_supports():
    layer = [gc.gate("CZ", [(0, 1), (1, 1)]), gc.gate("CZ", [(1, 1), (2, 1)])]
    report = gc.validate(gc.circuit((4, 4), [layer]))
    assert not report.ok
    assert any("overlapping" in v for v in report.violations)


def test_validate_reports_depth_mismatch_and_outside_lattice():
    circ = gc.LatticeCircuit((2,), 3, ((gc.gate("X", [(5,)]),),))
    report = gc.validate(circ)
    assert not report.ok
    assert any("depth" in v for v in report.violations)
    assert any("outside" in v for v in report.violations)


def test_validate_lists_every_violation_in_gate_order():
    # unitarity is checked one layer and matrix size at a time; the list is
    # the one the per-gate check gave, in the same order and words
    shear = np.array([[1, 1], [0, 1]], dtype=complex)
    layers = [
        [gc.gate("X", [(0, 0)]), gc.Gate(shear, ((1, 0),)), gc.gate("CZ", [(0, 1), (2, 1)])],
        [gc.gate("H", [(0, 0)]), gc.gate("CNOT", [(0, 0), (1, 0)]), gc.Gate(2 * np.eye(4), ((2, 0), (2, 1))),
         gc.gate("Z", [(5, 0)])],
    ]
    report = gc.validate(gc.LatticeCircuit((3, 2), 3, tuple(map(tuple, layers))))
    assert not report.ok
    assert report.violations == [
        "layer count 2 does not match declared depth 3",
        "layer 0: non-unitary gate on ((1, 0),)",
        "layer 0: non-local gate on ((0, 1), (2, 1)) (L-inf distance 2 > 1)",
        "layer 1: overlapping supports at [(0, 0)]",
        "layer 1: non-unitary gate on ((2, 0), (2, 1))",
        "layer 1: coordinate (5, 0) outside lattice (3, 2)",
    ]


def test_light_cone_identity_circuit_is_seed():
    circ = generate_circuit({"kind": "identity", "dims": [6], "depth": 1})
    assert gc.light_cone(circ, [(2,)], "forward") == {(2,)}


def test_light_cone_depth1_partner():
    circ = gc.circuit((4,), [[gc.gate("CZ", [(0,), (1,)]), gc.gate("CZ", [(2,), (3,)])]])
    assert gc.light_cone(circ, [(0,)], "forward") == {(0,), (1,)}


def test_light_cone_depth2_brickwork_hand_derived():
    # layers (0,1)(2,3)(4,5)(6,7) then (1,2)(3,4)(5,6); seed {3}
    circ = generate_circuit({"kind": "brickwork", "dims": [8], "depth": 2, "seed": 0, "gates": "haar"})
    cone = {q[0] for q in gc.light_cone(circ, [(3,)], "forward")}
    assert cone == {1, 2, 3, 4}
    assert cone <= set(range(1, 6))


def test_light_cone_growth_bounded_by_depth():
    circ = generate_circuit({"kind": "brickwork", "dims": [12], "depth": 2, "seed": 1, "gates": "haar"})
    cone = gc.light_cone(circ, [(6,)], "forward")
    assert all(abs(q[0] - 6) <= circ.depth for q in cone)


@settings(max_examples=30, deadline=None)
@given(
    seed1=st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
    extra=st.sets(st.integers(min_value=0, max_value=9), max_size=3),
)
def test_light_cone_monotone(seed1, extra):
    circ = generate_circuit({"kind": "brickwork", "dims": [10], "depth": 2, "seed": 3, "gates": "haar"})
    small = [(q,) for q in seed1]
    big = [(q,) for q in seed1 | extra]
    assert gc.light_cone(circ, small, "forward") <= gc.light_cone(circ, big, "forward")


def test_cut_regions_partition():
    circ = generate_circuit({"kind": "identity", "dims": [10], "depth": 1})
    regions = gc.cut_regions(circ, gc.Slice(0, 4, 6))
    assert [q[0] for q in regions.back] == [0, 1, 2, 3]
    assert [q[0] for q in regions.middle] == [4, 5]
    assert [q[0] for q in regions.front] == [6, 7, 8, 9]


def test_cut_regions_boundary_empty_back():
    circ = generate_circuit({"kind": "identity", "dims": [10], "depth": 1})
    regions = gc.cut_regions(circ, gc.Slice(0, 0, 2))
    assert regions.back == ()
    assert [q[0] for q in regions.middle] == [0, 1]
    assert len(regions.front) == 8


@pytest.mark.parametrize("axis", [5, -1])
def test_cut_regions_rejects_an_axis_outside_the_lattice(axis):
    # axis 5 raised IndexError, and axis -1 quietly cut axis 1
    circ = generate_circuit({"kind": "brickwork", "dims": [4, 2], "depth": 1, "seed": 1, "gates": "weak"})
    with pytest.raises(gc.CutError, match="outside a lattice of 2 axes"):
        gc.cut_regions(circ, gc.Slice(axis, 0, 2))


def test_cut_regions_rejects_narrow_slice():
    circ = generate_circuit({"kind": "brickwork", "dims": [10], "depth": 2, "seed": 1, "gates": "haar"})
    with pytest.raises(gc.CutError, match="insufficient light-cone separation"):
        gc.cut_regions(circ, gc.Slice(0, 4, 6))


def test_cut_regions_no_gate_spans_back_and_front(chain10_weak):
    regions = gc.cut_regions(chain10_weak, gc.Slice(0, 4, 6))
    bset, fset = set(regions.back), set(regions.front)
    for _, g in chain10_weak.gates():
        qs = set(g.qubits)
        assert not (qs & bset and qs & fset)


def test_cone_separation_through_middle(chain10_weak):
    regions = gc.cut_regions(chain10_weak, gc.Slice(0, 4, 6))
    fwd_b = gc.light_cone(chain10_weak, regions.back, "forward")
    bwd_f = gc.light_cone(chain10_weak, regions.front, "backward")
    assert not (fwd_b & set(regions.front))
    assert not (bwd_f & set(regions.back))


def test_enumerate_slices_spec_tiling():
    circ = generate_circuit({"kind": "identity", "dims": [40], "depth": 1})
    slices = gc.enumerate_slices(circ, 0, 10, 10)
    assert [(s.lo, s.hi) for s in slices] == [(0, 10), (20, 30)]


def test_enumerate_slices_exact_fit():
    circ = generate_circuit({"kind": "identity", "dims": [10], "depth": 1})
    slices = gc.enumerate_slices(circ, 0, 10, 0)
    assert [(s.lo, s.hi) for s in slices] == [(0, 10)]


def test_enumerate_slices_no_room_warns():
    circ = generate_circuit({"kind": "identity", "dims": [4], "depth": 1})
    with pytest.warns(UserWarning):
        assert gc.enumerate_slices(circ, 0, 10, 10) == []


@settings(max_examples=25, deadline=None)
@given(
    length=st.integers(min_value=4, max_value=60),
    width=st.integers(min_value=2, max_value=12),
    gap=st.integers(min_value=0, max_value=8),
)
def test_enumerate_slices_disjoint_sorted_gaps(length, width, gap):
    circ = generate_circuit({"kind": "identity", "dims": [length], "depth": 1})
    if length < width:
        with pytest.warns(UserWarning):
            slices = gc.enumerate_slices(circ, 0, width, gap)
    else:
        slices = gc.enumerate_slices(circ, 0, width, gap)
    for a, b in zip(slices, slices[1:]):
        assert a.hi <= b.lo
        assert b.lo - a.hi <= gap
    assert slices == sorted(slices, key=lambda s: s.lo)


def test_layers_have_disjoint_supports_on_accepted_circuits():
    for seed in range(4):
        circ = generate_circuit(
            {"kind": "brickwork", "dims": [8, 2], "depth": 2, "seed": seed, "gates": "haar"}
        )
        assert gc.validate(circ).ok
        for layer in circ.layers:
            seen = set()
            for g in layer:
                assert not (seen & set(g.qubits))
                seen.update(g.qubits)


def test_circuit_json_roundtrip(tmp_path, chain10_weak):
    path = tmp_path / "c.json"
    gc.save_circuit(chain10_weak, path)
    loaded = gc.load_circuit(path)
    assert loaded.fingerprint() == chain10_weak.fingerprint()
    named = gc.circuit((2,), [[gc.gate("H", [(0,)])], [gc.gate("CNOT", [(0,), (1,)])]])
    data = json.loads(json.dumps(gc.circuit_to_json(named)))
    again = gc.circuit_from_json(data)
    assert again.layers[0][0].name == "H"
    assert again.fingerprint() == named.fingerprint()


@pytest.mark.parametrize("dims", [(5,), (3, 2), (2, 1, 4), (1, 1, 1)])
def test_sites_are_row_major(dims):
    circ = gc.circuit(dims, [[]])
    assert circ.sites() == tuple(tuple(int(c) for c in q) for q in np.ndindex(*dims))
    assert all(type(c) is int for q in circ.sites() for c in q)
