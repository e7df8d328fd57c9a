"""The live-width engine (`oracle.apply_gates`) against a full-width evaluation.

The reference holds every qubit for the whole evaluation and runs the gates
in layer order with np.tensordot, as the engine did before it kept only the
live qubits; the engine must give the same synthesis values to 1e-12.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dncsim import blockenc, dnc, oracle
from dncsim import geomcircuit as gc
from dncsim import synthesis as syn
from dncsim.harness import generate_circuit
from dncsim.synthesis import CutOp, Synthesis, synthesis_of_circuit


def _tensordot(t, m, axes):
    k = len(axes)
    t = np.tensordot(m.reshape([2] * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(t, list(range(k)), axes)


def _zero(t, axes):
    t = t.copy()
    for a in axes:
        t[(slice(None),) * a + (1,)] = 0.0
    return t


def full_width_value(s) -> float:
    """<0_N| phi_S |0_N> with every qubit held from the start, gates in layer
    order; an input state Y Y^dagger is loaded as sum_j y_j (x) |j>, with j on
    a trailing batch axis."""
    held, block = [], np.ones(())
    for op in s.cut_ops:
        if op.kind == "input_state":
            held, block = list(op.qubits), op.factors.reshape([2] * len(op.qubits) + [-1])
    qubits = list(s.gamma.sites())
    index = {q: i for i, q in enumerate(qubits)}
    t = oracle.product_state(len(qubits), [index[q] for q in held], block)
    for _, g in s.gamma.gates():
        t = _tensordot(t, g.matrix, [index[q] for q in g.qubits])
    t = _zero(t, [index[q] for q in s.M])
    for op in s.cut_ops:
        if op.kind == "input_state":
            continue
        t = _zero(t, [index[q] for q in op.project_zero])
        m = op.matrix if op.factors is None else (op.factors * op.coeffs) @ op.factors.conj().T
        t = _tensordot(t, m, [index[q] for q in op.qubits])
    t = _zero(t, [index[q] for q in s.N])
    return float(np.real(np.vdot(t, t)))


def _unitary(rng, k):
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    return np.linalg.qr(z)[0]


def _psd(rng, k):
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    m = z @ z.conj().T
    return m / np.trace(m).real


def _factor(rng, k):
    """Y with Y Y^dagger a random density operator on k qubits."""
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    return z / np.linalg.norm(z)


def random_synthesis(rng, dims, depth):
    """Random gates on all sites but one idle site; random L/M/N roles; an
    input-state band, dense and low-rank sandwiches, an insertion, and a
    sandwich on the idle site, each present or not at random."""
    sites = [tuple(c) for c in np.ndindex(*dims)]
    idle = sites[rng.integers(len(sites))]
    layers = []
    for _ in range(depth):
        free, layer = [q for q in sites if q != idle], []
        rng.shuffle(free)
        while free:
            q = free.pop()
            near = [p for p in free if gc.linf(p, q) == 1]
            if near and rng.random() < 0.7:
                p = near[rng.integers(len(near))]
                free.remove(p)
                layer.append(gc.Gate(_unitary(rng, 2), (q, p)))
            elif rng.random() < 0.6:
                layer.append(gc.Gate(_unitary(rng, 1), (q,)))
        layers.append(layer)
    circ = gc.circuit(dims, layers)
    roles = {"L": [], "M": [], "N": []}
    for q in sites:
        roles["LMN"[rng.integers(3)]].append(q)

    def pick(k):
        return tuple(sites[i] for i in rng.choice(len(sites), size=k, replace=False))

    def lowrank(k):
        f = np.linalg.qr(rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k)))[0]
        r = int(rng.integers(1, 2**k + 1))
        return f[:, :r], rng.uniform(0.2, 1.0, size=r)

    ops = []
    if rng.random() < 0.6:
        k = int(rng.integers(1, 3))
        ops.append(CutOp("input_state", pick(k), factors=_factor(rng, k)))
    if rng.random() < 0.6:
        k = int(rng.integers(1, 3))
        ops.append(CutOp("sandwich", pick(k), matrix=_psd(rng, k)))
    if rng.random() < 0.6:
        k = int(rng.integers(1, 3))
        f, c = lowrank(k)
        ops.append(CutOp("sandwich", pick(k), factors=f, coeffs=c))
    if rng.random() < 0.6:
        qs = pick(3)
        f, c = lowrank(2)
        ops.append(CutOp("insertion", qs[:2], factors=f, coeffs=c, project_zero=qs[2:]))
    if rng.random() < 0.5:
        ops.append(CutOp("sandwich", (idle,), matrix=_psd(rng, 1)))
    return Synthesis(circ, tuple(roles["L"]), tuple(roles["M"]), tuple(roles["N"]),
                     tuple(range(len(dims))), cut_ops=tuple(ops))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(5,), (8,), (3, 3), (4, 2), (2, 2, 2), (5, 1, 1)]),
    depth=st.integers(1, 3),
)
def test_synthesis_value_matches_the_full_width_evaluation(seed, dims, depth):
    # at most 9 sites and a purification batch of 4 (2 qubits)
    s = random_synthesis(np.random.default_rng(seed), dims, depth)
    assert abs(oracle.synthesis_value_exact(s) - full_width_value(s)) <= 1e-12


def embedded(s, shift):
    """s moved by `shift` into a root one site larger on every axis (its
    other sites traced), and carved back out along each axis in turn: a view
    whose own frame is s."""
    move = lambda q: tuple(x + v for x, v in zip(q, shift))
    dims = tuple(w + v + 1 for w, v in zip(s.gamma.dims, shift))
    circ = gc.circuit(dims, [[gc.Gate(g.matrix, tuple(map(move, g.qubits)), g.name) for g in layer]
                             for layer in s.gamma.layers])
    role = {move(q): r for r in "LMN" for q in getattr(s, r)}
    roles = {r: tuple(q for q in circ.sites() if role.get(q, "L") == r) for r in "LMN"}
    ops = tuple(CutOp(op.kind, tuple(map(move, op.qubits)), op.matrix, op.factors, op.coeffs,
                      tuple(map(move, op.project_zero))) for op in s.cut_ops)
    piece = Synthesis(circ, roles["L"], roles["M"], roles["N"], s.declared_axes, cut_ops=ops)
    for axis, (v, w) in enumerate(zip(shift, s.gamma.dims)):
        piece = syn._segment(piece, axis, v, v + w, piece.ids, piece.ops)
    return piece, move


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(5,), (8,), (3, 3), (4, 2), (2, 2, 2), (5, 1, 1)]),
    depth=st.integers(1, 3),
    shift=st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2)),
)
def test_a_sweep_is_translation_invariant(seed, dims, depth, shift):
    # a piece is swept in root coordinates: moving every coordinate (gates,
    # roles, annotations) by a fixed vector gives the same tensor to the bit,
    # with every site of its live list moved by that vector
    s = random_synthesis(np.random.default_rng(seed), dims, depth)
    piece, move = embedded(s, shift[: len(dims)])
    assert piece.origin == shift[: len(dims)] and piece.dims == dims
    t, live = oracle.synthesis_state(s)
    t_moved, live_moved = oracle.synthesis_state(piece)
    assert t_moved.shape == t.shape and np.array_equal(t_moved, t)
    sites = set(s.gamma.sites())
    assert live_moved == [move(q) if q in sites else q for q in live]  # the ancillas stay
    # its own frame and its key are those of s
    assert (piece.L, piece.M, piece.N) == (s.L, s.M, s.N)
    assert [g.qubits for _, g in piece.gamma.gates()] == [g.qubits for _, g in s.gamma.gates()]
    assert [(op.qubits, op.project_zero) for op in piece.cut_ops] == [(op.qubits, op.project_zero) for op in s.cut_ops]
    assert syn.content_key(piece) == syn.content_key(s)


@pytest.mark.parametrize("dims,depth", [((6,), 3), ((3, 5), 2), ((4, 4), 2), ((2, 3, 2), 2)])
def test_sweep_order_is_causal_and_the_same_on_every_call(dims, depth):
    circ = generate_circuit({"kind": "brickwork", "dims": list(dims), "depth": depth, "seed": 2, "gates": "haar"})
    gates = [(g.matrix, g.qubits) for _, g in circ.gates()]
    layer = [t for t, _ in circ.gates()]
    order = oracle.sweep_order(gates)
    assert sorted(order) == list(range(len(gates)))
    for q in circ.sites():  # each qubit's gates run in layer order
        seen = [layer[i] for i in order if q in gates[i][1]]
        assert seen == sorted(seen)
    assert oracle.sweep_order(gates) == order
    again = [(m.copy(), tuple(tuple(c) for c in qs)) for m, qs in gates]
    assert oracle.sweep_order(again) == order
    # the sweep runs along the longest axis: its first gate sits at its start
    axis = int(np.argmax(dims))
    assert min(q[axis] for q in gates[order[0]][1]) == 0


def test_sweep_order_finishes_row_0_of_a_column_pair_before_row_1():
    # C then C^dagger on a [4,2] ladder, each layer listing row 1 first
    circ = generate_circuit({"kind": "brickwork", "dims": [4, 2], "depth": 1, "seed": 2, "gates": "haar"})
    layer = sorted(circ.layers[0], key=lambda g: -g.qubits[0][1])
    gates = [(g.matrix, g.qubits) for g in layer] + [(g.matrix.conj().T, g.qubits) for g in layer]
    order = oracle.sweep_order(gates)
    for col in (0, 2):
        rows = [gates[i][1][0][1] for i in order if gates[i][1][0][0] == col]
        assert rows == [0, 0, 1, 1]
    assert [gates[i][1][0][0] for i in order] == [0, 0, 0, 0, 2, 2, 2, 2]


def test_the_cap_counts_the_live_width_not_every_qubit():
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [12], "depth": 1, "seed": 3, "gates": "weak", "strength": 0.2}
    )
    s = synthesis_of_circuit(circ)
    # every qubit is N and closed right after its one gate
    assert abs(oracle.synthesis_value_exact(s, cap=4) - full_width_value(s)) <= 1e-12
    # traced (L) qubits stay live to the final norm: the right half holds 6
    sites = circ.sites()
    half = Synthesis(circ, L=sites[6:], M=(), N=sites[:6], declared_axes=s.declared_axes)
    with pytest.raises(oracle.OracleCapacityError, match="6 qubits > cap 4"):
        oracle.synthesis_value_exact(half, cap=4)
    assert abs(oracle.synthesis_value_exact(half, cap=6) - full_width_value(half)) <= 1e-12


def _peak_bytes(fn):
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synthesis_value_of_a_22_qubit_chain_stays_far_below_one_state():
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [22, 1, 1], "depth": 2, "seed": 7, "gates": "weak", "strength": 0.1}
    )
    s = synthesis_of_circuit(circ)
    assert _peak_bytes(lambda: oracle.synthesis_value_exact(s)) <= 16 * 2**22 / 16


def test_rho_cubed_encoding_block_stays_far_below_one_state():
    circ = generate_circuit({"kind": "brickwork", "dims": [4], "depth": 1, "seed": 5, "gates": "haar"})
    enc = blockenc.build_rho_power_encoding(circ, gc.cut_regions(circ, gc.Slice(0, 1, 3)), 3)
    used = set(enc.ancilla) | set(enc.data) | {q for _, g in enc.circuit.gates() for q in g.qubits}
    assert len(used) == 19
    assert _peak_bytes(lambda: blockenc.encoding_block(enc)) <= 16 * 2**19 / 16


def test_a_sweep_wider_than_the_cap_raises_before_it_allocates():
    # depth-6 brickwork on [16,4,4]: the sweep would hold 36 qubits, 2^36
    # amplitudes in each work buffer; one 2^24 state is 256 MiB
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [16, 4, 4], "depth": 6, "seed": 16, "gates": "weak", "strength": 0.1}
    )
    s = synthesis_of_circuit(circ)

    def evaluate():
        with pytest.raises(oracle.OracleCapacityError, match="36 qubits > cap 24"):
            oracle.synthesis_value_exact(s, cap=24)

    assert _peak_bytes(evaluate) <= 16 * 2**24 / 256


def test_the_band_matrices_of_a_cut_are_capped_before_any_window_is_swept():
    # depth-4 brickwork on [64,4,1]: the band of Slice(0,16,24) has 16 qubits,
    # so omega, W^dagger W and the Gram would be 2^16 x 2^16 (64 GiB each);
    # the window's sweep holds 24 qubits, which the cap allows
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [64, 4, 1], "depth": 4, "seed": 64, "gates": "weak", "strength": 0.1}
    )
    s = synthesis_of_circuit(circ)

    def cut():
        with pytest.raises(oracle.OracleCapacityError, match="32 qubits > cap 24"):
            syn.cut_data(s, gc.Slice(0, 16, 24), 2, cap=24)

    assert _peak_bytes(cut) <= 16 * 2**24 / 256
    # the estimate reaches that cut after its slice-weight scan
    with pytest.raises(oracle.OracleCapacityError, match="32 qubits > cap 24"):
        dnc.a_full(s, None, 0.1, 3, config=dnc.DncConfig(profile="desk", cap=24))


def test_reduce_checks_its_dense_output_against_the_cap():
    t = np.random.default_rng(3).normal(size=[2] * 8)
    with pytest.raises(oracle.OracleCapacityError, match="12 qubits > cap 11"):
        oracle.reduce(t, [0, 2, 4, 6, 7, 1], cap=11)
    want = np.einsum("abcdefgh,abCDefgh->cdCD", t, t.conj()).reshape(4, 4)
    assert np.abs(oracle.reduce(t, [2, 3], cap=4) - want).max() < 1e-12


def test_encoding_block_counts_the_data_qubits_no_gate_touches():
    # one H on the ancilla; the 3 data qubits are opened at the end as identity
    # pairs, 6 axes, though the circuit has 4 qubits
    circ = gc.circuit((4,), [[gc.gate("H", [(0,)])]])
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    target = blockenc.TargetSpec("sigma", circ, regions, 1, "F")
    enc = blockenc.BlockEncoding(circ, ((0,),), ((1,), (2,), (3,)), 1.0, 0.0, target)
    with pytest.raises(oracle.OracleCapacityError, match="6 qubits > cap 5"):
        blockenc.encoding_block(enc, cap=5)
    assert np.abs(blockenc.encoding_block(enc, cap=6) - np.eye(8) / np.sqrt(2)).max() < 1e-12


def test_two_axis_sigma_encoding_block_holds_at_most_18_live_axes():
    # 16 qubits, 8 of them data: holding every data column from the first
    # gate needs two 2^20-amplitude work buffers; the operator sweep peaks at 2^18
    circ = generate_circuit({"kind": "brickwork", "dims": [4, 2], "depth": 1, "seed": 1, "gates": "haar"})
    enc = blockenc.build_sigma_encoding(circ, gc.cut_regions(circ, gc.Slice(0, 0, 2)))
    assert len(enc.data) == 8 and enc.circuit.n_qubits == 16
    assert _peak_bytes(lambda: blockenc.encoding_block(enc)) < 2 * 16 * 2**19
