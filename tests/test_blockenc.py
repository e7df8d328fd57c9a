import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    # the paper's cut operator at K = 1, (rho_F/kappa)^2, is the block of the
    # literal encoding of rho_F^2 over kappa^2, with rho_F and kappa those of
    # cut_data at true scale
    circ = seeded_chain(n, 1, seed, gates)
    s, sl = syn.synthesis_of_circuit(circ), gc.Slice(0, 2, 4)
    data = syn.cut_data(s, sl, 2)
    rho = data.omega_scale * data.amat @ data.amat.conj().T
    kappa = data.omega_scale * data.front_scale * data.kappa
    enc = blockenc.build_rho_power_encoding(circ, gc.cut_regions(circ, sl), 2)
    op = np.linalg.matrix_power(rho / kappa, 2)
    assert np.abs(blockenc.encoding_block(enc) / kappa**2 - op).max() < 1e-12


def test_rho_power_rejects_unsupported_k():
    circ = seeded_chain(4, 1, 8)
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    with pytest.raises(ValueError, match="k <= 4"):
        blockenc.build_rho_power_encoding(circ, regions, 5)


def nonlocal_gates(enc):
    return [g.qubits for _, g in enc.circuit.gates() if g.arity == 2 and gc.linf(*g.qubits) > 1]


def test_interleave_depth_and_locality_k1():
    circ = seeded_chain(6, 1, 3)
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    enc = blockenc.build_sigma_encoding(circ, regions)
    assert enc.circuit.depth <= 3 * circ.depth
    assert not nonlocal_gates(enc)


def test_interleave_depth_bounds_power_k():
    circ = seeded_chain(4, 2, 9)
    regions = gc.cut_regions(circ, gc.Slice(0, 0, 4))
    for k in (1, 2):
        enc = blockenc.build_rho_power_encoding(circ, regions, k, side="F")
        assert enc.circuit.depth <= (2 * k + 1) * circ.depth
        assert not nonlocal_gates(enc)


def test_interleave_fixes_nonlocal_swaps():
    # k >= 2 needs copy planes on both transverse axes; each factor's planes
    # sit next to their swap partners, so every swap is nearest-neighbor
    circ = seeded_chain(4, 1, 8)
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    for k in (2, 3, 4):
        enc = blockenc.build_rho_power_encoding(circ, regions, k, side="F")
        assert not nonlocal_gates(enc)
    assert enc.circuit.dims[-2:] == (4, 5)  # planes -2..1 and -2..2


def test_interleave_preserves_block():
    circ = seeded_chain(6, 1, 14)
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    sigma = oracle.reduced_state(circ, regions)
    rho = oracle.postselect_zero(sigma, regions.middle).matrix
    for enc, target in (
        (blockenc.build_sigma_encoding(circ, regions), sigma.matrix),
        (blockenc.build_rho_power_encoding(circ, regions, 2, side="F"), rho @ rho),
    ):
        assert np.abs(blockenc.encoding_block(enc, cap=24) - target).max() < 1e-12


@pytest.mark.parametrize("dims", [(6,), (4, 2)])
@settings(max_examples=8, deadline=None)
@given(depth=st.integers(1, 2), seed=st.integers(0, 2**16), lo=st.integers(0, 2))
def test_every_encoding_is_nearest_neighbor_and_within_its_depth_budget(dims, depth, seed, lo):
    # sigma, and rho^k for k = 1..4 on both sides, on a chain and a 2-D lattice
    assume(lo + 2 * depth <= dims[0])
    circ = generate_circuit({"kind": "brickwork", "dims": list(dims), "depth": depth, "seed": seed, "gates": "haar"})
    regions = gc.cut_regions(circ, gc.Slice(0, lo, lo + 2 * depth))
    encs = [blockenc.build_sigma_encoding(circ, regions)] + [
        blockenc.build_rho_power_encoding(circ, regions, k, side=side)
        for k in range(1, blockenc.MAX_POWER + 1)
        for side in ("F", "B")
    ]
    for enc in encs:
        assert enc.circuit.depth <= (2 * enc.target.k + 1) * depth
        assert not nonlocal_gates(enc)


def test_build_rejects_a_circuit_whose_encoding_has_a_nonlocal_gate():
    # a gate between sites 0 and 2 of a chain stays at distance 2 in every copy
    circ = gc.LatticeCircuit((4,), 1, ((Gate(np.eye(4, dtype=complex), ((0,), (2,))),),))
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    with pytest.raises(AssertionError, match="non-local"):
        blockenc.build_sigma_encoding(circ, regions)


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
    "kind,side,lo,seed",
    [("sigma", "F", 1, 31), ("sigma", "F", 1, 32), ("rho", "F", 0, 33), ("rho", "B", 2, 34)],
)
def test_encoding_block_matches_circuit_unitary(kind, side, lo, seed):
    circ = seeded_chain(4, 1, seed)
    regions = gc.cut_regions(circ, gc.Slice(0, lo, lo + 2))
    if kind == "sigma":
        enc = blockenc.build_sigma_encoding(circ, regions)
    else:
        enc = blockenc.build_rho_power_encoding(circ, regions, 1, side=side)
    assert enc.circuit.n_qubits <= 10 and len(enc.data) >= 2
    block = blockenc.encoding_block(enc)
    assert np.abs(block - unitary_block(enc)).max() < 1e-12


def test_encoding_block_with_no_data_qubits_is_the_vacuum_amplitude():
    circ = seeded_chain(4, 1, 35)
    enc = blockenc.build_rho_power_encoding(circ, gc.cut_regions(circ, gc.Slice(0, 0, 2)), 1, side="B")
    assert enc.data == ()
    block = blockenc.encoding_block(enc)
    assert block.shape == (1, 1)
    assert np.abs(block - unitary_block(enc)).max() < 1e-12


def test_encoding_block_gives_an_untouched_data_qubit_an_identity_factor():
    rng = np.random.default_rng(36)
    u2 = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    u1 = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    circ = gc.circuit((3,), [[Gate(u2, ((0,), (1,)))], [Gate(u1, ((1,),))]])
    # the untouched qubit (2,) comes first in the data order
    enc = blockenc.BlockEncoding(circ, ((0,),), ((2,), (1,)), 1.0, 0.0, None)
    block = blockenc.encoding_block(enc)
    assert np.abs(block - unitary_block(enc)).max() < 1e-12
    assert np.abs(block - np.kron(np.eye(2), u1 @ u2[:2, :2])).max() < 1e-12


def test_two_axis_sigma_encoding_block_matches_circuit_unitary():
    circ = generate_circuit({"kind": "brickwork", "dims": [2, 2], "depth": 1, "seed": 37, "gates": "haar"})
    enc = blockenc.build_sigma_encoding(circ, gc.cut_regions(circ, gc.Slice(0, 0, 2)))
    assert len(enc.data) == 4 and enc.circuit.n_qubits == 8
    assert np.abs(blockenc.encoding_block(enc) - unitary_block(enc)).max() < 1e-12


def test_two_axis_sigma_encoding_block_runs_on_16_wires():
    # 256x256 block: its rows and columns alone are 16 axes, and the sweep
    # holds no more, since a SWAP relabels two wires instead of opening a column
    circ = generate_circuit({"kind": "brickwork", "dims": [4, 2], "depth": 1, "seed": 1, "gates": "haar"})
    regions = gc.cut_regions(circ, gc.Slice(0, 0, 2))
    enc = blockenc.build_sigma_encoding(circ, regions)
    with pytest.raises(oracle.OracleCapacityError, match="16 qubits > cap 15"):
        blockenc.encoding_block(enc, cap=15)
    block = blockenc.encoding_block(enc, cap=16)
    assert np.abs(block - oracle.reduced_state(circ, regions).matrix).max() < 1e-12


@pytest.mark.parametrize("side", ["F", "B"])
def test_rho_fourth_power_encoding_block_matches_its_target_at_cap_4(side):
    circ = generate_circuit({"kind": "brickwork", "dims": [4], "depth": 1, "seed": 4, "gates": "weak", "strength": 0.1})
    enc = blockenc.build_rho_power_encoding(circ, gc.cut_regions(circ, gc.Slice(0, 1, 3)), blockenc.MAX_POWER, side)
    assert enc.target.k == 4 and len(enc.data) == 1
    block = blockenc.encoding_block(enc, cap=4)
    assert np.abs(block - blockenc._target_operator(enc.target, oracle.DEFAULT_CAP)).max() < 1e-12
    with pytest.raises(oracle.OracleCapacityError, match="> cap 3"):
        blockenc.encoding_block(enc, cap=3)


def test_sigma_encoding_block_reads_a_data_qubit_only_a_swap_touches():
    # no gate of C touches (3,), so only the swap layer reaches its data
    # qubit: its input wire is closed and its output wire never opened
    rng = np.random.default_rng(38)
    u2 = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    circ = gc.circuit((4,), [[Gate(u2, ((1,), (2,)))]])
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    assert regions.front == ((3,),)
    enc = blockenc.build_sigma_encoding(circ, regions)
    assert (3, 0, 0) in enc.data
    assert {g.name for _, g in enc.circuit.gates() if {(3, 0, 0), (3, 1, 0)} & set(g.qubits)} == {"SWAP"}
    assert np.abs(blockenc.encoding_block(enc) - unitary_block(enc)).max() < 1e-12
