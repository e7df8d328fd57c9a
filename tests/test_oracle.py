import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dncsim import geomcircuit as gc, oracle
from dncsim.harness import generate_circuit
from dncsim.synthesis import CutCalculus, CutOp, Synthesis, cut_data, split_at_cuts, synthesis_of_circuit


def bell_circuit():
    return gc.circuit((2,), [[gc.gate("H", [(0,)])], [gc.gate("CNOT", [(0,), (1,)])]])


def column(circ):
    """C|0^n> from `apply_gates`, started from a scalar, as a flat vector in
    `circ.sites()` order (index bits big-endian), to compare with a column of
    `circuit_unitary`."""
    t, live = oracle.apply_gates(np.ones(()), [(g.matrix, g.qubits) for _, g in circ.gates()], [])
    index = {q: i for i, q in enumerate(circ.sites())}
    return oracle.product_state(circ.n_qubits, [index[q] for q in live], t).reshape(-1)


def test_apply_circuit_hadamard():
    circ = gc.circuit((1,), [[gc.gate("H", [(0,)])]])
    assert np.allclose(column(circ), [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert np.allclose(column(circ), oracle.circuit_unitary(circ)[:, 0], atol=1e-12)
    for x in "01":
        assert oracle.output_probability(circ, x) == pytest.approx(0.5, abs=1e-12)


def test_apply_circuit_identity_unchanged():
    circ = generate_circuit({"kind": "identity", "dims": [3], "depth": 2})
    assert np.array_equal(column(circ), oracle.product_state(3).reshape(-1))
    assert np.array_equal(oracle.circuit_unitary(circ)[:, 0], oracle.product_state(3).reshape(-1))
    assert oracle.output_probability(circ, "000") == 1.0
    assert oracle.output_probability(circ, "010") == 0.0


def test_apply_circuit_bell():
    circ = bell_circuit()
    expect = np.zeros(4)
    expect[0] = expect[3] = 1 / np.sqrt(2)
    assert np.allclose(column(circ), expect)
    assert np.abs(column(circ) - oracle.circuit_unitary(circ)[:, 0]).max() < 1e-12
    probs = [oracle.output_probability(circ, x) for x in ("00", "01", "10", "11")]
    assert np.allclose(probs, [0.5, 0.0, 0.0, 0.5], atol=1e-12)


def test_apply_circuit_norm_preserved():
    circ = generate_circuit({"kind": "brickwork", "dims": [9], "depth": 2, "seed": 12, "gates": "haar"})
    psi = column(circ)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    U = oracle.circuit_unitary(circ)
    assert np.abs(psi - U[:, 0]).max() < 1e-12
    for x in ("000000000", "101100111", "011010010"):
        assert abs(oracle.output_probability(circ, x) - abs(U[int(x, 2), 0]) ** 2) < 1e-12


def test_apply_circuit_rejects_foreign_qubits():
    # a gate on (2,) in a two-site lattice
    circ = gc.circuit((2,), [[gc.gate("H", [(2,)])]])
    with pytest.raises(ValueError, match="outside the lattice"):
        oracle.output_probability(circ, "00")
    regions = gc.CutRegions(((0,),), ((1,),), (), gc.Slice(0, 1, 2))
    with pytest.raises(ValueError, match="outside the lattice"):
        oracle.reduced_state(circ, regions)


def test_output_probability_rejects_bits_outside_0_1():
    circ = gc.circuit((2,), [[gc.gate("X", [(1,)])]])
    assert oracle.output_probability(circ, "01") == 1.0
    assert oracle.output_probability(circ, [0, 1]) == 1.0
    for x in ("02", [0, -1], "21", [2, 0]):
        with pytest.raises(ValueError, match="outside"):
            oracle.output_probability(circ, x)


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
        psi = column(circ)
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
    assert regions.back == ((0,), (1,))
    rho = oracle.reduced_state(circ, regions)
    psi = oracle.circuit_unitary(circ)[:, 0].reshape(2 ** 2, 2 ** 4)
    brute = np.zeros((16, 16), dtype=complex)
    for b in range(4):
        brute += np.outer(psi[b], psi[b].conj())
    assert np.abs(rho.matrix - brute).max() < 1e-10
    assert rho.trace == pytest.approx(1.0, abs=1e-10)


def random_unitary(rng, k):
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    return np.linalg.qr(z)[0]


def sigma_from_unitary(circ, back):
    """tr_B of C|0><0|C^dagger from column 0 of `circuit_unitary`, the kept
    qubits in `circ.sites()` order."""
    sites = circ.sites()
    b = [sites.index(q) for q in back]
    psi = oracle.circuit_unitary(circ)[:, 0].reshape([2] * len(sites))
    k = len(sites) - len(b)
    return np.tensordot(psi, psi.conj(), axes=(b, b)).reshape(2**k, 2**k)


def chain_with_idle_ends(rng):
    # (0,) in B and (5,) in F are touched by no gate
    q = [(i,) for i in range(6)]
    layers = [
        [gc.gate(random_unitary(rng, 2), [q[1], q[2]]), gc.gate(random_unitary(rng, 2), [q[3], q[4]])],
        [gc.gate(random_unitary(rng, 2), [q[2], q[3]]), gc.gate(random_unitary(rng, 1), [q[4]])],
    ]
    return gc.circuit((6,), layers), gc.Slice(0, 2, 4)


def ladder_with_idle_sites(rng):
    # (0, 1) in B and (3, 0) in F are touched by no gate; two gates list
    # their qubits against the sweep order
    layers = [
        [gc.gate(random_unitary(rng, 2), [(0, 0), (1, 0)]), gc.gate(random_unitary(rng, 2), [(3, 1), (2, 1)])],
        [
            gc.gate(random_unitary(rng, 2), [(1, 1), (1, 0)]),
            gc.gate(random_unitary(rng, 2), [(2, 0), (2, 1)]),
            gc.gate(random_unitary(rng, 1), [(0, 0)]),
        ],
    ]
    return gc.circuit((4, 2), layers), gc.Slice(0, 1, 3)


@pytest.mark.parametrize("build", [chain_with_idle_ends, ladder_with_idle_sites])
@pytest.mark.parametrize("swap", [False, True])
def test_reduced_state_matches_unitary_column_with_idle_qubits(build, swap):
    circ, sl = build(np.random.default_rng(11))
    regions = gc.cut_regions(circ, sl, depth=1)
    if swap:  # trace out F instead, as the B-side encodings do
        regions = gc.CutRegions(regions.front, regions.middle, regions.back, sl)
    used = {q for _, g in circ.gates() for q in g.qubits}
    assert set(regions.back) - used and (set(regions.middle) | set(regions.front)) - used
    rho = oracle.reduced_state(circ, regions)
    assert rho.qubits == tuple(q for q in circ.sites() if q not in regions.back)
    assert np.abs(rho.matrix - sigma_from_unitary(circ, regions.back)).max() < 1e-12
    assert rho.trace == pytest.approx(1.0, abs=1e-12)


def test_reduced_state_and_output_probability_cap_the_width_they_hold():
    # sigma on 10 of 40 qubits: the sweep holds (0,), widened by the 10 kept qubits
    circ = gc.circuit((40,), [[gc.gate("H", [(0,)])]])
    rho = oracle.reduced_state(circ, gc.cut_regions(circ, gc.Slice(0, 30, 32)))
    zero = np.zeros((2**10, 2**10))
    zero[0, 0] = 1.0
    assert np.abs(rho.matrix - zero).max() < 1e-12
    # 20 kept qubits: a 2^20 x 2^20 dense output
    with pytest.raises(oracle.OracleCapacityError, match="40 qubits > cap 22"):
        oracle.reduced_state(circ, gc.cut_regions(circ, gc.Slice(0, 20, 22)))
    # 15 live qubits in B, widened by the 11 kept ones
    wide = gc.circuit((30,), [[gc.gate("H", [(i,)]) for i in range(15)]])
    with pytest.raises(oracle.OracleCapacityError, match="26 qubits > cap 22"):
        oracle.reduced_state(wide, gc.cut_regions(wide, gc.Slice(0, 19, 21)))
    # output_probability holds 4 of 6 qubits
    small, _ = chain_with_idle_ends(np.random.default_rng(2))
    with pytest.raises(oracle.OracleCapacityError, match="4 qubits > cap 3"):
        oracle.output_probability(small, "0" * 6, cap=3)
    u00 = oracle.circuit_unitary(small)[0, 0]
    assert oracle.output_probability(small, "0" * 6, cap=4) == pytest.approx(abs(u00) ** 2, abs=1e-12)


def test_output_probability_reads_the_amplitude_at_live_width():
    # the sweep holds the one qubit H touches; the 39 others are |0>
    circ = gc.circuit((40,), [[gc.gate("H", [(0,)])]])
    assert oracle.output_probability(circ, "1" + "0" * 39) == pytest.approx(0.5, abs=1e-12)
    assert oracle.output_probability(circ, "0" * 39 + "1") == 0.0
    assert oracle.output_probability(circ, "1" * 40) == 0.0


def hermitian_with_min_eigenvalue(rng, lam):
    v = random_unitary(rng, 2)
    m = (v * [lam, 0.1, 0.2, 0.3]) @ v.conj().T
    return (m + m.conj().T) / 2


def test_density_operator_rejects_min_eigenvalue_below_minus_1e_8():
    m = hermitian_with_min_eigenvalue(np.random.default_rng(1), -2e-8)
    assert np.abs(m - m.conj().T).max() == 0.0 and np.trace(m).real <= 1.0
    with pytest.raises(ValueError, match=r"matrix not PSD: min eigenvalue -(1\.9|2\.0)\d*e-08"):
        oracle.DensityOperator(m, ((0,), (1,)))


def test_density_operator_accepts_min_eigenvalue_within_1e_8():
    m = hermitian_with_min_eigenvalue(np.random.default_rng(1), -5e-9)
    assert np.linalg.eigvalsh(m).min() < 0
    oracle.DensityOperator(m, ((0,), (1,)))


def test_density_operator_accepts_rank_one_projector_on_8_qubits():
    rng = np.random.default_rng(4)
    v = rng.normal(size=256) + 1j * rng.normal(size=256)
    v /= np.linalg.norm(v)
    op = oracle.DensityOperator(np.outer(v, v.conj()), [(i,) for i in range(8)])
    assert op.trace == pytest.approx(1.0, abs=1e-12)


def test_density_operator_checks_hermitian_before_psd():
    # Hermitian from its lower triangle, [[.5, 1], [1, .5]] has eigenvalue -0.5
    m = np.array([[0.5, 0.0], [1.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="must be Hermitian"):
        oracle.DensityOperator(m, ((0,),))


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
    # the identity circuit has no gates, so its sweep holds none of its 8 qubits
    circ = generate_circuit({"kind": "identity", "dims": [8], "depth": 1})
    assert oracle.synthesis_value_exact(synthesis_of_circuit(circ), cap=4) == 1.0
    # with every site traced (L), a brickwork chain's sweep holds all 8 to the end
    chain = generate_circuit({"kind": "brickwork", "dims": [8], "depth": 1, "seed": 1, "gates": "haar"})
    traced = replace(synthesis_of_circuit(chain), L=chain.sites(), N=())
    with pytest.raises(oracle.OracleCapacityError, match="8 qubits > cap 4"):
        oracle.synthesis_value_exact(traced, cap=4)
    assert oracle.synthesis_value_exact(traced, cap=8) == pytest.approx(1.0, abs=1e-12)


def test_synthesis_value_with_input_state_annotation():
    # loading omega = I/2 on one qubit and projecting it to zero gives tr 1/2
    circ = generate_circuit({"kind": "identity", "dims": [2], "depth": 1})
    op = CutOp(kind="input_state", qubits=((0,),), matrix=np.eye(2, dtype=complex) / 2)
    s = Synthesis(
        gamma=circ, L=(), M=((0,),), N=((1,),), declared_axes=(0,), cut_ops=(op,)
    )
    assert oracle.synthesis_value_exact(s) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# the state-tensor kernels against circuit_unitary (which shares no code)
# ---------------------------------------------------------------------------


def traced_state(s):
    """synthesis_state of s with every site in L, widened to every site:
    (t, live), the sites first in `s.gamma.sites()` order, then the
    purification ancillas."""
    sites = list(s.gamma.sites())
    t, live = oracle._open(*oracle.synthesis_state(replace(s, L=tuple(sites), M=(), N=())), sites)
    anc = [q for q in live if q not in set(sites)]
    return t.transpose([live.index(q) for q in sites + anc]), sites + anc


@pytest.mark.parametrize(
    "dims,depth",
    [((8,), 2), ((4, 2), 2), ((3, 3), 1), ((2, 2, 2), 2), ((5, 1, 1), 3)],
)
def test_synthesis_state_matches_unitary_column(dims, depth):
    circ = generate_circuit({"kind": "brickwork", "dims": list(dims), "depth": depth, "seed": 5, "gates": "haar"})
    s = synthesis_of_circuit(circ)
    t, qubits = traced_state(s)
    assert t.shape == (2,) * circ.n_qubits
    assert qubits == list(circ.sites())
    U = oracle.circuit_unitary(circ, cap=10)
    assert np.abs(t.reshape(-1) - U[:, 0]).max() < 1e-12
    # with the sites in N the state is projected on 0: the amplitude <0|C|0>
    t, _ = oracle.synthesis_state(s)
    assert abs(np.vdot(t, t) - abs(U[0, 0]) ** 2) < 1e-12


def test_synthesis_state_with_input_state_matches_unitary():
    # a right child of a split starts from a mixed band state, loaded through
    # ancillas; tracing them out must give U (omega x |0><0|) U^dagger
    circ = generate_circuit({"kind": "brickwork", "dims": [10], "depth": 1, "seed": 9, "gates": "haar"})
    s = synthesis_of_circuit(circ)
    calc = CutCalculus("exact-spectral", K=2, T=2)
    right = split_at_cuts(cut_data(s, gc.Slice(0, 2, 4), calc)).right
    (op,) = [op for op in right.cut_ops if op.kind == "input_state"]
    sites = right.gamma.sites()
    ns, nb = len(sites), len(op.qubits)
    t, qubits = traced_state(right)
    assert qubits[:ns] == list(sites) and len(qubits) == ns + nb
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


def test_apply_gates_matches_tensordot_to_the_bit_and_leaves_its_input():
    rng = np.random.default_rng(5)

    def unitary(k):
        z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
        return np.linalg.qr(z)[0]

    # five qubits (0,)..(4,) and a batch axis of 3; gates on adjacent,
    # distant, reversed and single qubits, one of them given as a transposed
    # view; all qubits live, none closed, so no gate is narrowed
    t0 = rng.normal(size=(2,) * 5 + (3,)) + 1j * rng.normal(size=(2,) * 5 + (3,))
    q = [(i,) for i in range(5)]
    gates = [(unitary(2), [q[0], q[1]]), (unitary(2), [q[4], q[1]]), (unitary(1), [q[3]]), (unitary(2).T, [q[2], q[0]])]
    want = t0
    for i in oracle.sweep_order(gates):
        m, qs = gates[i]
        k, axes = len(qs), [x for (x,) in qs]
        want = np.tensordot(m.reshape([2] * (2 * k)), want, axes=(list(range(k, 2 * k)), axes))
        want = np.moveaxis(want, list(range(k)), axes)
    before = t0.copy()
    got, live = oracle.apply_gates(t0, gates, q)
    got = got.transpose([live.index(x) for x in q] + [5])
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(t0, before)
    assert oracle.apply_gates(t0, [], q)[0] is t0


@pytest.mark.parametrize("closed", [False, True])
def test_apply_gates_opens_a_paired_qubit_no_gate_touches(closed):
    # qubits (0,), (1,) carry one gate; (2,) is paired but no gate touches
    # it, so it is opened after the gates: an identity pair, or, closed, the
    # row <0| under its label alone; a batch axis of 3 stays last
    rng = np.random.default_rng(11)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    batch = rng.normal(size=3)
    q0, q1, q2 = (0,), (1,), (2,)
    t, live = oracle.apply_gates(batch, [(u, (q0, q1))], [], [q2] if closed else [], {q0: "a", q2: "b"})
    # u's columns for input 0 on the unpaired (1,), indexed [out0, out1, in0]
    block = u.reshape(2, 2, 2, 2)[:, :, :, 0]
    if closed:
        assert live[0] == "b" and q2 not in live
        want = np.einsum("xyi,j,z->xyijz", block, [1.0, 0.0], batch)
        got = t.transpose([live.index(x) for x in (q0, q1, "a", "b")] + [4])
    else:
        assert live[:2] == [q2, "b"]
        want = np.einsum("xyi,wj,z->xywijz", block, np.eye(2), batch)
        got = t.transpose([live.index(x) for x in (q0, q1, q2, "a", "b")] + [5])
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-15


def test_output_probability_peak_memory_is_two_states():
    # every qubit of the chain is live by the end, so the sweep holds its two
    # work buffers at full width and nothing else that size; a third state
    # (a widened copy, say) would make it three
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [16, 1, 1], "depth": 2, "seed": 7, "gates": "weak", "strength": 0.3}
    )
    oracle.output_probability(circ, "0" * 16)
    tracemalloc.start()
    try:
        oracle.output_probability(circ, "0" * 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * 16 * 2**16
