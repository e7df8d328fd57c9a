import numpy as np
import pytest

from dncsim import blockenc, geomcircuit as gc, oracle, synthesis as syn
from dncsim.geomcircuit import Gate
from dncsim.harness import generate_circuit


def seeded_chain(n, depth, seed, gates="haar"):
    return generate_circuit({"kind": "brickwork", "dims": [n], "depth": depth, "seed": seed, "gates": gates})


def test_sigma_encoding_of_identity_is_zero_projector():
    circ = generate_circuit({"kind": "identity", "dims": [4], "depth": 1})
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    enc = blockenc.build_sigma_encoding(circ, regions)
    block = blockenc.encoding_block(enc)
    zero = np.zeros((8, 8))
    zero[0, 0] = 1.0
    assert np.abs(block - zero).max() < 1e-12
    assert blockenc.verify_encoding(enc) == pytest.approx(0.0, abs=1e-12)


def test_sigma_encoding_ignores_back_local_unitaries():
    # H acting only on a back qubit leaves sigma = |0><0| on M u F
    circ = gc.circuit((4,), [[gc.gate("H", [(0,)])]])
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    enc = blockenc.build_sigma_encoding(circ, regions)
    block = blockenc.encoding_block(enc)
    zero = np.zeros((8, 8))
    zero[0, 0] = 1.0
    assert np.abs(block - zero).max() < 1e-10


def test_sigma_encoding_matches_oracle_on_small_lattices():
    # depth-1 circuit on a 3x2 lattice, slice in the middle (front empty), and
    # a 4x2 lattice with all three regions populated
    for dims, sl in (([3, 2], gc.Slice(0, 1, 3)), ([4, 2], gc.Slice(0, 1, 3))):
        circ = generate_circuit({"kind": "brickwork", "dims": dims, "depth": 1, "seed": 21, "gates": "haar"})
        regions = gc.cut_regions(circ, sl)
        enc = blockenc.build_sigma_encoding(circ, regions)
        assert blockenc.verify_encoding(enc) < 1e-10
        assert enc.alpha == 1.0 and enc.epsilon_claim == 0.0


def test_sigma_ancilla_count_is_total_qubits():
    circ = seeded_chain(6, 1, 4)
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    enc = blockenc.build_sigma_encoding(circ, regions)
    assert len(enc.ancilla) == circ.n_qubits
    assert set(enc.ancilla).isdisjoint(enc.data)
    # primed-copy bookkeeping records the fresh registers
    primes = dict(enc.target.regions.primes)
    assert len(primes["M'"]) == len(regions.middle)
    assert len(primes["F'"]) == len(regions.front)


def test_rho_power_k1_is_sigma_with_middle_postselected():
    circ = seeded_chain(6, 1, 11)
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    enc1 = blockenc.build_rho_power_encoding(circ, regions, 1, side="F")
    sig = blockenc.build_sigma_encoding(circ, regions)
    assert set(enc1.ancilla) == set(sig.ancilla) | {q + (0, 0) for q in regions.middle}
    rho_block = blockenc.encoding_block(enc1)
    sigma = oracle.reduced_state(circ, regions)
    rho = oracle.postselect_zero(sigma, regions.middle)
    assert np.abs(rho_block - rho.matrix).max() < 1e-10


def test_rho_power_ancilla_counts_match_lemma():
    circ = seeded_chain(5, 1, 13)
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    for k in (1, 2):
        for side in ("F", "B"):
            enc = blockenc.build_rho_power_encoding(circ, regions, k, side=side)
            assert len(enc.ancilla) == k * (circ.n_qubits + len(regions.middle))


def test_rho_power_rank_one_scaling():
    # product circuit: rho_F is rank 1 with trace t, so rho^k = t^(k-1) rho
    circ = generate_circuit({"kind": "product", "dims": [4], "depth": 1, "seed": 6, "strength": 0.5})
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    sigma = oracle.reduced_state(circ, regions)
    rho = oracle.postselect_zero(sigma, regions.middle).matrix
    t = float(np.real(np.trace(rho)))
    for k in (2, 3):
        enc = blockenc.build_rho_power_encoding(circ, regions, k, side="F")
        block = blockenc.encoding_block(enc, cap=24)
        assert np.abs(block - t ** (k - 1) * rho).max() < 1e-9


def test_rho_power_k2_matches_dense_power():
    circ = seeded_chain(4, 1, 8)
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    for side in ("F", "B"):
        enc = blockenc.build_rho_power_encoding(circ, regions, 2, side=side)
        assert blockenc.verify_encoding(enc, cap=24) < 1e-9


@pytest.mark.parametrize("n, gates, seed", [(6, "haar", 8), (5, "weak", 9)])
def test_rho_power_block_over_kappa_is_the_power_encoding_cut_operator(n, gates, seed):
    # at K = 1 the cut operator (rho/kappa)^2 is the block of the literal
    # encoding of rho_F^2, over kappa^2
    circ = seeded_chain(n, 1, seed, gates)
    s, sl = syn.synthesis_of_circuit(circ), gc.Slice(0, 2, 4)
    calc = syn.CutCalculus("power-encoding", K=1, T=2)
    enc = blockenc.build_rho_power_encoding(circ, gc.cut_regions(circ, sl), 2)
    kappa = syn.cut_data(s, sl, calc).kappa
    op = syn.cut_projector(s, sl, calc)
    assert np.abs(blockenc.encoding_block(enc) / kappa**2 - op).max() < 1e-12


def test_rho_power_rejects_unsupported_k():
    circ = seeded_chain(4, 1, 8)
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    with pytest.raises(ValueError, match="k <= 4"):
        blockenc.build_rho_power_encoding(circ, regions, 5)


def test_interleave_depth_and_locality_k1():
    circ = seeded_chain(6, 1, 3)
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    inter = blockenc.interleave(blockenc.build_sigma_encoding(circ, regions))
    assert inter.circuit.depth <= 3 * circ.depth
    assert all(gc.linf(*g.qubits) <= 1 for _, g in inter.circuit.gates() if g.arity == 2)


def test_interleave_depth_bounds_power_k():
    circ = seeded_chain(4, 2, 9)
    regions = gc.cut_regions(circ, gc.Slice(0, 0, 4))
    for k in (1, 2):
        enc = blockenc.build_rho_power_encoding(circ, regions, k, side="F")
        inter = blockenc.interleave(enc)
        assert inter.circuit.depth <= (2 * k + 1) * circ.depth
        assert all(gc.linf(*g.qubits) <= 1 for _, g in inter.circuit.gates() if g.arity == 2)


def test_interleave_fixes_nonlocal_swaps():
    circ = seeded_chain(4, 1, 8)
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    enc = blockenc.build_rho_power_encoding(circ, regions, 2, side="F")
    stacked_bad = [g for _, g in enc.circuit.gates() if g.arity == 2 and gc.linf(*g.qubits) > 1]
    assert stacked_bad  # the stacked layout is genuinely non-local for k >= 2
    inter = blockenc.interleave(enc)
    assert not [g for _, g in inter.circuit.gates() if g.arity == 2 and gc.linf(*g.qubits) > 1]


def test_interleave_preserves_block():
    circ = seeded_chain(6, 1, 14)
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    for enc in (
        blockenc.build_sigma_encoding(circ, regions),
        blockenc.build_rho_power_encoding(circ, regions, 2, side="F"),
    ):
        inter = blockenc.interleave(enc)
        b1 = blockenc.encoding_block(enc, cap=24)
        b2 = blockenc.encoding_block(inter, cap=24)
        assert np.abs(b1 - b2).max() < 1e-12


def test_verify_encoding_detects_corruption():
    circ = seeded_chain(6, 1, 17)
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    enc = blockenc.build_sigma_encoding(circ, regions)
    layers = [list(l) for l in enc.circuit.layers]
    for li, layer in enumerate(layers):
        if layer:
            g = layer[0]
            layer[0] = Gate(np.eye(g.matrix.shape[0], dtype=complex), g.qubits)
            break
    corrupted = gc.LatticeCircuit(enc.circuit.dims, enc.circuit.depth, tuple(tuple(l) for l in layers))
    bad = blockenc.BlockEncoding(
        circuit=corrupted,
        ancilla=enc.ancilla,
        data=enc.data,
        alpha=enc.alpha,
        epsilon_claim=enc.epsilon_claim,
        target=enc.target,
        layout=enc.layout,
    )
    assert blockenc.verify_encoding(bad) > 1e-3


def test_verify_encoding_capacity():
    circ = seeded_chain(6, 1, 17)
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    enc = blockenc.build_sigma_encoding(circ, regions)
    with pytest.raises(oracle.OracleCapacityError):
        blockenc.verify_encoding(enc, cap=4)


def unitary_block(enc):
    """<0_rest| U |0_rest> on enc.data, from oracle.circuit_unitary over every site."""
    sites = enc.circuit.sites()
    n = len(sites)
    order = {q: i for i, q in enumerate(sites)}
    nd = len(enc.data)
    rows = [
        sum(((x >> (nd - 1 - pos)) & 1) << (n - 1 - order[q]) for pos, q in enumerate(enc.data))
        for x in range(2**nd)
    ]
    U = oracle.circuit_unitary(enc.circuit, cap=10)
    return U[np.ix_(rows, rows)]


@pytest.mark.parametrize(
    "kind,side,layout,lo,seed",
    [("sigma", "F", "stacked", 1, 31), ("sigma", "F", "interleaved", 1, 32),
     ("rho", "F", "stacked", 0, 33), ("rho", "B", "interleaved", 2, 34)],
)
def test_encoding_block_matches_circuit_unitary(kind, side, layout, lo, seed):
    circ = seeded_chain(4, 1, seed)
    regions = gc.cut_regions(circ, gc.Slice(0, lo, lo + 2))
    if kind == "sigma":
        enc = blockenc.build_sigma_encoding(circ, regions, layout=layout)
    else:
        enc = blockenc.build_rho_power_encoding(circ, regions, 1, side=side, layout=layout)
    assert enc.circuit.n_qubits <= 10 and len(enc.data) >= 2
    block = blockenc.encoding_block(enc)
    assert np.abs(block - unitary_block(enc)).max() < 1e-12
