import tracemalloc

import numpy as np
import pytest

from dncsim import geomcircuit as gc, oracle
from dncsim.harness import generate_circuit
from dncsim.synthesis import CutCalculus, CutOp, Synthesis, split_at_cuts, synthesis_of_circuit


def bell_circuit():
    return gc.circuit((2,), [[gc.gate("H", [(0,)])], [gc.gate("CNOT", [(0,), (1,)])]])


def test_apply_circuit_hadamard():
    circ = gc.circuit((1,), [[gc.gate("H", [(0,)])]])
    out = oracle.apply_circuit(oracle.basis_state(circ), circ)
    assert np.allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_circuit_identity_unchanged():
    circ = generate_circuit({"kind": "identity", "dims": [3], "depth": 2})
    state = oracle.basis_state(circ)
    out = oracle.apply_circuit(state, circ)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_apply_circuit_bell():
    out = oracle.evolve_zero(bell_circuit())
    expect = np.zeros(4)
    expect[0] = expect[3] = 1 / np.sqrt(2)
    assert np.allclose(out.amplitudes, expect)


def test_apply_circuit_norm_preserved():
    circ = generate_circuit({"kind": "brickwork", "dims": [9], "depth": 2, "seed": 12, "gates": "haar"})
    out = oracle.evolve_zero(circ)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_apply_circuit_rejects_foreign_qubits():
    circ = gc.circuit((3,), [[gc.gate("H", [(2,)])]])
    small = oracle.StateVector(np.array([1, 0], dtype=complex), ((0,),))
    with pytest.raises(ValueError):
        oracle.apply_circuit(small, circ)


def test_output_probability_identity():
    circ = generate_circuit({"kind": "identity", "dims": [5], "depth": 1})
    assert oracle.output_probability(circ, "00000") == pytest.approx(1.0)


def test_output_probability_hadamards():
    n = 6
    layer = [gc.gate("H", [(i,)]) for i in range(n)]
    circ = gc.circuit((n,), [layer])
    assert oracle.output_probability(circ, "0" * n) == pytest.approx(2.0**-n, abs=1e-12)


def test_output_probability_matches_full_unitary():
    circ = generate_circuit({"kind": "brickwork", "dims": [8], "depth": 2, "seed": 7, "gates": "haar"})
    v1 = oracle.output_probability(circ, "0" * 8)
    U = oracle.circuit_unitary(circ)
    assert abs(v1 - abs(U[0, 0]) ** 2) < 1e-10


def test_two_evaluation_orders_agree_many_seeds():
    for seed in range(6):
        circ = generate_circuit(
            {"kind": "brickwork", "dims": [7], "depth": 2, "seed": seed, "gates": "haar"}
        )
        psi = oracle.evolve_zero(circ).amplitudes
        U = oracle.circuit_unitary(circ)
        assert np.abs(psi - U[:, 0]).max() < 1e-10


def test_reduced_state_bell_is_maximally_mixed():
    circ = bell_circuit()
    regions = gc.CutRegions(((0,),), ((1,),), (), gc.Slice(0, 1, 2))
    rho = oracle.reduced_state(circ, regions)
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)
    assert rho.trace == pytest.approx(1.0, abs=1e-10)


def test_reduced_state_product_circuit_factorizes():
    # no entanglement across the cut: sigma equals the M u F marginal product
    circ = generate_circuit({"kind": "product", "dims": [4], "depth": 1, "seed": 9, "strength": 0.4})
    regions = gc.cut_regions(circ, gc.Slice(0, 1, 3))
    rho = oracle.reduced_state(circ, regions)
    site_states = {}
    for g in circ.layers[0]:
        site_states[g.qubits[0]] = g.matrix @ np.array([1.0, 0.0])
    expected = np.array([[1.0]])
    for q in list(regions.middle) + list(regions.front):
        v = site_states[q]
        expected = np.kron(expected, np.outer(v, v.conj()))
    assert np.abs(rho.matrix - expected).max() < 1e-10


def test_reduced_state_against_elementwise_contraction():
    circ = generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 4, "gates": "haar"})
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    rho = oracle.reduced_state(circ, regions)
    psi = oracle.evolve_zero(circ).amplitudes.reshape(2 ** 2, 2 ** 4)
    brute = np.zeros((16, 16), dtype=complex)
    for b in range(4):
        brute += np.outer(psi[b], psi[b].conj())
    assert np.abs(rho.matrix - brute).max() < 1e-10
    assert rho.trace == pytest.approx(1.0, abs=1e-10)


def test_postselect_zero_basics():
    op = oracle.DensityOperator(np.diag([1.0, 0, 0, 0]).astype(complex), ((0,), (1,)))
    out = oracle.postselect_zero(op, [(0,)])
    assert np.allclose(out.matrix, np.diag([1.0, 0]))

    op = oracle.DensityOperator(np.eye(4, dtype=complex) / 4, ((0,), (1,)))
    out = oracle.postselect_zero(op, [(0,)])
    assert np.allclose(out.matrix, np.eye(2) / 4)
    assert out.trace == pytest.approx(0.5)


def test_postselect_zero_seeded_psd_and_trace():
    circ = generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 8, "gates": "haar"})
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    sigma = oracle.reduced_state(circ, regions)
    rho = oracle.postselect_zero(sigma, regions.middle)
    w = np.linalg.eigvalsh(rho.matrix)
    assert w.min() > -1e-8
    assert 0.0 <= rho.trace <= 1.0 + 1e-10
    assert rho.trace <= sigma.trace + 1e-12


def test_spectral_simple_cases():
    half = oracle.DensityOperator(np.eye(2, dtype=complex) / 2, ((0,),))
    pairs = oracle.spectral(half)
    assert [round(v, 12) for v, _ in pairs] == [0.5, 0.5]
    pure = oracle.DensityOperator(np.diag([1.0, 0]).astype(complex), ((0,),))
    assert [round(v, 12) for v, _ in oracle.spectral(pure)] == [1.0, 0.0]


def test_spectral_eigensum_is_trace():
    circ = generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 3, "gates": "haar"})
    regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))
    rho = oracle.postselect_zero(oracle.reduced_state(circ, regions), regions.middle)
    pairs = oracle.spectral(rho)
    assert sum(v for v, _ in pairs) == pytest.approx(rho.trace, abs=1e-10)


def test_spectral_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        bad = oracle.DensityOperator.__new__(oracle.DensityOperator)
        object.__setattr__(bad, "matrix", np.array([[0, 1], [0, 0]], dtype=complex))
        object.__setattr__(bad, "qubits", ((0,),))
        oracle.spectral(bad)


def test_synthesis_value_identity_is_one():
    circ = generate_circuit({"kind": "identity", "dims": [3], "depth": 1})
    assert oracle.synthesis_value_exact(synthesis_of_circuit(circ)) == pytest.approx(1.0)


def test_synthesis_value_h_on_output_register():
    circ = gc.circuit((1,), [[gc.gate("H", [(0,)])]])
    assert oracle.synthesis_value_exact(synthesis_of_circuit(circ)) == pytest.approx(0.5)


def test_synthesis_value_h_on_postselected_register():
    circ = gc.circuit((2,), [[gc.gate("H", [(0,)])]])
    s = Synthesis(gamma=circ, L=(), M=((0,),), N=((1,),), declared_axes=(0,))
    assert oracle.synthesis_value_exact(s) == pytest.approx(0.5)


def test_synthesis_value_in_unit_interval_for_unitary_gamma():
    for seed in range(5):
        circ = generate_circuit(
            {"kind": "brickwork", "dims": [8], "depth": 2, "seed": seed, "gates": "haar"}
        )
        v = oracle.synthesis_value_exact(synthesis_of_circuit(circ))
        assert -1e-12 <= v <= 1.0 + 1e-9


def test_synthesis_value_capacity_error():
    circ = generate_circuit({"kind": "identity", "dims": [8], "depth": 1})
    with pytest.raises(oracle.OracleCapacityError, match="capacity"):
        oracle.synthesis_value_exact(synthesis_of_circuit(circ), cap=4)


def test_synthesis_value_with_input_state_annotation():
    # loading omega = I/2 on one qubit and projecting it to zero gives tr 1/2
    circ = generate_circuit({"kind": "identity", "dims": [2], "depth": 1})
    op = CutOp(kind="input_state", qubits=((0,),), matrix=np.eye(2, dtype=complex) / 2)
    s = Synthesis(
        gamma=circ, L=(), M=((0,),), N=((1,),), declared_axes=(0,), cut_ops=(op,)
    )
    assert oracle.synthesis_value_exact(s) == pytest.approx(0.5)


def test_base_exact_is_synthesis_value():
    circ = generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 1, "gates": "haar"})
    s = synthesis_of_circuit(circ)
    assert oracle.base_exact(s, 0.3) == oracle.synthesis_value_exact(s)


# ---------------------------------------------------------------------------
# the state-tensor kernels against circuit_unitary (which shares no code)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dims,depth",
    [((8,), 2), ((4, 2), 2), ((3, 3), 1), ((2, 2, 2), 2), ((5, 1, 1), 3)],
)
def test_synthesis_state_matches_unitary_column(dims, depth):
    circ = generate_circuit({"kind": "brickwork", "dims": list(dims), "depth": depth, "seed": 5, "gates": "haar"})
    t, qubits, index = oracle.synthesis_state(synthesis_of_circuit(circ))
    assert t.shape == (2,) * circ.n_qubits
    assert list(qubits) == list(circ.sites())
    U = oracle.circuit_unitary(circ, cap=10)
    assert np.abs(t.reshape(-1) - U[:, 0]).max() < 1e-12


def test_synthesis_state_with_input_state_matches_unitary():
    # a right child of a split starts from a mixed band state, loaded through
    # ancillas; tracing them out must give U (omega x |0><0|) U^dagger
    circ = generate_circuit({"kind": "brickwork", "dims": [10], "depth": 1, "seed": 9, "gates": "haar"})
    s = synthesis_of_circuit(circ)
    calc = CutCalculus("exact-spectral", K=2, T=2)
    right = split_at_cuts(s, gc.Slice(0, 2, 4), None, calc).right
    (op,) = [op for op in right.cut_ops if op.kind == "input_state"]
    sites = right.gamma.sites()
    ns, nb = len(sites), len(op.qubits)
    t, qubits, _ = oracle.synthesis_state(right)
    assert list(qubits[:ns]) == list(sites) and len(qubits) == ns + nb
    m = t.reshape(2**ns, -1)
    rho = m @ m.conj().T

    order = {q: i for i, q in enumerate(sites)}
    idx = np.arange(2**ns)
    band_bits = np.zeros(2**ns, dtype=np.int64)
    band_mask = 0
    for pos, q in enumerate(op.qubits):
        band_bits |= ((idx >> (ns - 1 - order[q])) & 1) << (nb - 1 - pos)
        band_mask |= 1 << (ns - 1 - order[q])
    sel = idx[(idx & ~band_mask) == 0]
    rho0 = np.zeros((2**ns, 2**ns), dtype=complex)
    rho0[np.ix_(sel, sel)] = op.matrix[np.ix_(band_bits[sel], band_bits[sel])]
    U = oracle.circuit_unitary(right.gamma, cap=10)
    assert np.abs(rho - U @ rho0 @ U.conj().T).max() < 1e-12


def test_product_state_places_block_axes_in_the_given_order():
    rng = np.random.default_rng(3)
    block = rng.normal(size=(2, 2, 3))  # qubit axes for qubits 3 and 1, then a batch axis
    t = oracle.product_state(4, [3, 1], block)
    assert t.shape == (2, 2, 2, 2, 3)
    for a in range(2):
        for b in range(2):
            assert np.array_equal(t[0, b, 0, a], block[a, b])
    t[0, :, 0, :] = 0.0
    assert not t.any()


def test_synthesis_value_peak_memory_is_three_states():
    # the gate loop may hold its input, the tensordot copy and its output;
    # holding the initial state as well would make it four states
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [16, 1, 1], "depth": 2, "seed": 7, "gates": "weak", "strength": 0.3}
    )
    s = synthesis_of_circuit(circ)
    oracle.synthesis_value_exact(s)
    tracemalloc.start()
    try:
        oracle.synthesis_value_exact(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * 16 * 2**16
