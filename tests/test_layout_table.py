"""The table of encoding records: `blockenc._layout` builds an encoding's structure once per layout.

A record (`blockenc.Layout`) depends on the source circuit's dims, depth,
gate qubits and SWAP mask, the cut regions, k and the side, never on the
matrices, so an encoding on a layout already in the table places its own
circuit's matrices on the record that an empty table would build.
"""
import dataclasses
import itertools

import numpy as np
import pytest

from dncsim import blockenc, geomcircuit as gc
from dncsim.geomcircuit import NAMED_GATES, Gate
from dncsim.harness import generate_circuit


def _haar(dims, depth: int, seed: int):
    return generate_circuit({"kind": "brickwork", "dims": list(dims), "depth": depth, "seed": seed, "gates": "haar"})


def _unitary(rng, k: int) -> np.ndarray:
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    return np.linalg.qr(z)[0]


def _arrays(x) -> int:
    if isinstance(x, np.ndarray):
        return 1
    if dataclasses.is_dataclass(x):
        return sum(_arrays(getattr(x, f.name)) for f in dataclasses.fields(x))
    return sum(map(_arrays, x)) if isinstance(x, tuple) else 0


def _unbuilt(enc) -> blockenc.BlockEncoding:
    """The encoding as a hand-built one: its own fully built circuit is its source."""
    return blockenc.BlockEncoding(enc.circuit, enc.ancilla, enc.data, enc.alpha, enc.epsilon_claim, enc.target)


def _encodings(circ, regions, ks=(1, 2)):
    return [blockenc.build_sigma_encoding(circ, regions)] + [
        blockenc.build_rho_power_encoding(circ, regions, k, side) for k in ks for side in "FB"]


def test_two_circuits_on_one_layout_build_one_record():
    a, b = _haar([5], 1, 1), _haar([5], 1, 2)  # one layout, other matrices
    regions = gc.cut_regions(a, gc.Slice(0, 1, 3))
    assert gc.cut_regions(b, gc.Slice(0, 1, 3)) == regions
    blockenc._layout.cache_clear()
    first = blockenc.build_sigma_encoding(a, regions)
    second = blockenc.build_sigma_encoding(b, regions)
    assert blockenc._layout.cache_info().misses == 1
    assert first.layout is second.layout
    blocks = []
    for enc in (first, second):
        block = blockenc.encoding_block(enc)
        assert np.array_equal(block, blockenc.encoding_block(_unbuilt(enc)))
        assert np.abs(block - blockenc._target_operator(enc.target, 22)).max() < 1e-12
        blocks.append(block)
    assert np.abs(blocks[0] - blocks[1]).max() > 1e-3


def test_a_desk_sequence_builds_one_record_per_cut_on_its_first_seed():
    # Haar [5] depth 1 at every minimal cut, for three seeds, as a desk round does
    blockenc._layout.cache_clear()
    for seed in (1, 2, 3):
        circ = _haar([5], 1, seed)
        for lo in range(4):
            enc = blockenc.build_sigma_encoding(circ, gc.cut_regions(circ, gc.Slice(0, lo, lo + 2)))
            assert blockenc.verify_encoding(enc) < 1e-12
        assert blockenc._layout.cache_info().misses == 4


def test_a_record_holds_no_arrays():
    circ = _haar([5], 2, 4)
    blockenc._layout.cache_clear()
    for enc in _encodings(circ, gc.cut_regions(circ, gc.Slice(0, 0, 4))):
        assert _arrays(enc.layout) == 0
        assert enc.layout.gates  # not vacuous: every encoding multiplies gates in
    assert blockenc._layout.cache_info().currsize == 4  # sigma reads rho_F^1's record


@pytest.mark.parametrize("circ, match", [
    # a gate between sites 0 and 2 of a chain stays at distance 2 in every copy
    (gc.LatticeCircuit((4,), 1, ((Gate(np.eye(4, dtype=complex), ((0,), (2,))),),)), "non-local"),
    # a circuit of depth 0 has budget 0, and the swap layer alone is deeper
    (gc.LatticeCircuit((4,), 0, ()), "exceeds the budget 0"),
])
def test_a_layout_that_fails_its_checks_raises_on_every_build(circ, match):
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    blockenc._layout.cache_clear()
    for build in (1, 2):
        with pytest.raises(AssertionError, match=match):
            blockenc.build_sigma_encoding(circ, regions)
        assert blockenc._layout.cache_info().misses == build
        assert blockenc._layout.cache_info().currsize == 0


def _with_swap(seed: int, swap: Gate):
    """A depth-2 [5] chain whose first layer holds `swap` on (2,) and (3,)."""
    rng = np.random.default_rng(seed)
    return gc.circuit((5,), [
        [Gate(_unitary(rng, 2), ((0,), (1,))), swap, Gate(_unitary(rng, 1), ((4,),))],
        [Gate(_unitary(rng, 2), ((1,), (2,))), Gate(_unitary(rng, 2), ((3,), (4,)))],
    ])


@pytest.mark.parametrize("cut", [(0, 4), (1, 5)])
def test_a_named_swap_is_relabelled_forward_and_multiplied_in_as_its_adjoint(cut):
    circ = _with_swap(5, gc.gate("SWAP", [(2,), (3,)]))
    regions = gc.cut_regions(circ, gc.Slice(0, *cut))
    for enc in _encodings(circ, regions):
        names = {g.name for _, g in enc.circuit.gates() if g.qubits[0][0] == 2 and g.qubits[1][0] == 3}
        assert names == {"SWAP", "SWAP+"}
        block = blockenc.encoding_block(enc, cap=24)
        assert np.array_equal(block, blockenc.encoding_block(_unbuilt(enc), cap=24))
        assert np.abs(block - blockenc._target_operator(enc.target, 22)).max() < 1e-12


def test_the_swap_mask_is_part_of_the_layout():
    # the same positions, with the SWAP named (relabelled where it runs
    # forward) and as an unnamed copy of its matrix (multiplied in)
    named = _with_swap(6, gc.gate("SWAP", [(2,), (3,)]))
    unnamed = _with_swap(6, Gate(NAMED_GATES["SWAP"].copy(), ((2,), (3,))))
    regions = gc.cut_regions(named, gc.Slice(0, 0, 4))
    blockenc._layout.cache_clear()
    a, b = (blockenc.build_rho_power_encoding(c, regions, 2) for c in (named, unnamed))
    assert blockenc._layout.cache_info().misses == 2
    assert len(b.layout.gates) == len(a.layout.gates) + 2  # the forward SWAP in each of the two factors
    target = blockenc._target_operator(a.target, 22)
    for enc in (a, b):
        assert np.abs(blockenc.encoding_block(enc, cap=24) - target).max() < 1e-12


@pytest.mark.parametrize("seed", [7, 8])
def test_depth_2_sources_run_their_adjoint_layers_in_reverse(seed):
    circ = _haar([5], 2, seed)
    regions = gc.cut_regions(circ, gc.Slice(0, 0, 4))
    for enc in _encodings(circ, regions):
        k = enc.target.k
        adjoint = [t for t, _ in itertools.groupby(source[0] for source, _ in enc.layout.gates if source[2])]
        assert adjoint == [1, 0] * k  # each factor's C^dagger runs C's layers last to first
        assert enc.layout.depth == (k + 1) * circ.depth + k
        block = blockenc.encoding_block(enc, cap=24)
        assert np.array_equal(block, blockenc.encoding_block(_unbuilt(enc), cap=24))
        assert np.abs(block - blockenc._target_operator(enc.target, 22)).max() < 1e-12
