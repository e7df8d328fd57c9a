"""The light-cone cut_data against a dense reference, and at lengths it alone reaches.

The reference builds the cut state the direct way: the whole region behind
the slice's upper edge as one dense state (through oracle.synthesis_state)
for omega, and one column per band basis state through all front gates for
W.  cut_data builds the same quantities from small light-cone windows.
"""
import numpy as np
import pytest

from dncsim import dnc, geomcircuit as gc, oracle, synthesis as syn
from dncsim.harness import generate_circuit

EXACT = syn.CutCalculus("exact-spectral", K=2, T=2)
POWER = syn.CutCalculus("power-encoding", K=2, T=2)


def weak(dims, depth, seed=7, strength=0.3):
    return generate_circuit(
        {"kind": "brickwork", "dims": list(dims), "depth": depth, "seed": seed, "gates": "weak", "strength": strength}
    )


def dense_reference(s, sl, calc):
    """(weight, kappa, eigvals, left_op, right_input, rho_front, front cut operator)
    from whole-region states; the cut operator is Pi or (rho/kappa)^2K."""
    axis, d = sl.axis, s.gamma.depth
    left_ids, cone_ids, band = syn.causal_split(s, sl)
    left_ops, right_ops = syn._partition_ops(s, sl)

    left_dims = tuple(sl.hi if k == axis else w for k, w in enumerate(s.gamma.dims))
    left_circ = syn._restrict_layers(s.gamma, left_ids, axis, 0, left_dims)
    m_sites = set(s.M)
    left = syn.Synthesis(
        gamma=left_circ,
        L=tuple(q for q in left_circ.sites() if q not in m_sites),
        M=tuple(q for q in left_circ.sites() if q in m_sites),
        N=(),
        declared_axes=s.declared_axes,
        cut_ops=tuple(left_ops),
    )
    t, _, index = oracle.synthesis_state(left, cap=30)
    for op in left_ops:
        if op.kind == "sandwich":
            t = oracle.apply_sandwich(t, op, [index[q] for q in op.qubits])
    cond = [index[q] for q in left_circ.sites() if q in m_sites or sl.lo <= q[axis] < sl.hi - d]
    t = oracle.project_zero(t, cond)
    omega = oracle.reduce(t, [index[q] for q in band])

    front = [q for q in s.gamma.sites() if q[axis] >= sl.hi]
    sites = list(band) + front
    ridx = {q: i for i, q in enumerate(sites)}
    nb, nr = len(band), len(sites)
    gates = [g for t, layer in enumerate(s.gamma.layers) for gi, g in enumerate(layer) if (t, gi) in cone_ids]
    W = np.zeros((2 ** len(front), 2**nb), dtype=complex)
    for x in range(2**nb):
        col = np.zeros(2**nr, dtype=complex)
        col[x << len(front)] = 1.0
        col = col.reshape([2] * nr)
        for g in gates:
            col = oracle.apply_gate(col, g.matrix, [ridx[q] for q in g.qubits])
        for op in right_ops:
            if op.kind == "sandwich":
                col = oracle.apply_sandwich(col, op, [ridx[q] for q in op.qubits])
        W[:, x] = col.reshape(2**nb, -1)[0]

    rho = W @ omega @ W.conj().T
    lam, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    lam, vecs = np.clip(lam[::-1], 0.0, None), vecs[:, ::-1]
    eigvals = np.zeros(2**nb)  # the Gram's spectrum: that of rho, padded with zeros
    eigvals[: min(len(lam), 2**nb)] = lam[: 2**nb]
    kap = syn.kappa_from_spectrum(eigvals, calc.T)
    w, v = np.linalg.eigh(omega)
    m = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    A = W @ m
    G = A.conj().T @ A
    if calc.mode == "exact-spectral":
        kept = lam > calc.tau
        kept[0] = True
        pi = vecs[:, kept] @ vecs[:, kept].conj().T
        g_lam, g_vecs = np.linalg.eigh(0.5 * (G + G.conj().T))
        g_kept = g_lam > calc.tau
        g_kept[np.argmax(g_lam)] = True
        p1 = g_vecs[:, g_kept] @ g_vecs[:, g_kept].conj().T
        left_op = kap ** (2 * calc.K) * W.conj().T @ pi @ W
        right_input = kap ** (2 * calc.K) * m @ p1 @ m
        front_op = pi
    else:
        left_op = W.conj().T @ np.linalg.matrix_power(rho, 2 * calc.K) @ W
        right_input = m @ np.linalg.matrix_power(G, 2 * calc.K) @ m
        front_op = np.linalg.matrix_power(rho / kap, 2 * calc.K)
    return float(np.real(np.trace(rho))), kap, eigvals, left_op, right_input, rho, front_op


def assert_matches_reference(s, sl, calc=EXACT):
    data = syn.cut_data(s, sl, calc)
    weight, kap, eigvals, left_op, right_input, rho, front_op = dense_reference(s, sl, calc)
    assert data.weight == pytest.approx(weight, abs=1e-10)
    assert data.kappa == pytest.approx(kap, abs=1e-10)
    assert np.abs(data.eigvals - eigvals).max() < 1e-10
    assert np.abs(data.left_op - left_op).max() < 1e-10
    assert np.abs(data.right_input - right_input).max() < 1e-10
    assert np.abs(data.amat @ data.amat.conj().T - rho).max() < 1e-10
    factors, coeffs = data.projector_factors()
    assert np.abs((factors * coeffs) @ factors.conj().T - front_op).max() < 1e-10


def admissible_slices(s, width):
    """Slices of `width` along axis 0 at which s can be cut."""
    out = []
    for lo in range(s.gamma.dims[0] - width + 1):
        sl = gc.Slice(0, lo, lo + width)
        try:
            syn.cut_data(s, sl, EXACT)
        except syn.SplitError:
            continue
        out.append(sl)
    return out


@pytest.mark.parametrize(
    "dims, depth",
    [((12,), 1), ((14,), 2), ((7, 2, 1), 1), ((8, 2, 1), 2)],
)
def test_cut_data_matches_dense_reference(dims, depth):
    s = syn.synthesis_of_circuit(weak(dims, depth))
    slices = admissible_slices(s, 2 * depth)
    assert len(slices) == dims[0] - 2 * depth + 1
    for sl in slices:
        assert_matches_reference(s, sl, EXACT)
    assert_matches_reference(s, slices[len(slices) // 2], POWER)


@pytest.mark.parametrize(
    "dims, depth, i, j",
    [
        ((16,), 1, (4, 6), (10, 12)),
        ((18,), 2, (3, 7), (10, 14)),
        ((9, 2, 1), 1, (2, 4), (5, 7)),
    ],
)
def test_cut_data_of_children_matches_dense_reference(dims, depth, i, j):
    # left children carry a sandwich, right children an input state on an M
    # band, and middle children both
    s = syn.synthesis_of_circuit(weak(dims, depth))
    left = syn.split_at_cuts(s, gc.Slice(0, *i), EXACT).left
    middle = syn.middle_between_cuts(s, gc.Slice(0, *i), gc.Slice(0, *j), EXACT).middle
    right = syn.split_at_cuts(s, gc.Slice(0, *j), EXACT).right
    for child in (left, middle, right):
        slices = admissible_slices(child, 2 * depth)
        assert slices
        for sl in slices:
            assert_matches_reference(child, sl, EXACT)
        assert_matches_reference(child, slices[-1], POWER)


def test_cut_data_rejects_a_slice_on_the_input_band():
    s = syn.synthesis_of_circuit(weak((12,), 1))
    right = syn.split_at_cuts(s, gc.Slice(0, 4, 6), EXACT).right
    with pytest.raises(syn.SplitError, match="post-selected"):
        syn.cut_data(right, gc.Slice(0, 0, 2), EXACT)


def test_cut_data_at_the_middle_of_a_long_chain_fits_a_small_cap():
    circ = weak((128, 1, 1), 1, seed=128, strength=0.1)
    s = syn.synthesis_of_circuit(circ)
    data = syn.cut_data(s, gc.Slice(0, 64, 66), EXACT, cap=8)
    # depth 1, pairs (2k, 2k+1): the cut state is |g00|^2 |0><0| on the front,
    # g the gate on (64, 65)
    (g,) = [g for g in circ.layers[0] if g.qubits[0][0] == 64]
    assert data.weight == pytest.approx(abs(g.matrix[0, 0]) ** 2, abs=1e-12)
    assert data.kappa == pytest.approx(data.weight, abs=1e-12)


def test_cut_data_far_from_the_input_band_of_a_right_child():
    circ = weak((96, 1, 1), 1, seed=96, strength=0.1)
    s = syn.synthesis_of_circuit(circ)
    sp = syn.split_at_cuts(s, gc.Slice(0, 8, 10), EXACT)
    right = sp.right  # starts at site 8, input state on its site 1
    data = syn.cut_data(right, gc.Slice(0, 50, 52), EXACT, cap=8)
    # the input band is post-selected on 0, and the pair (58, 59) of the
    # parent ends at the slice: both factor out of the cut state
    (g,) = [g for g in circ.layers[0] if g.qubits[0][0] == 58]
    expected = np.real(sp.data.right_input[0, 0]) * abs(g.matrix[0, 0]) ** 2
    assert data.weight == pytest.approx(expected, rel=1e-10)


def test_a_full_on_a_48_qubit_chain_is_within_delta_of_the_pair_product():
    circ = weak((48, 1, 1), 1, seed=48, strength=0.1)
    exact = float(np.prod([abs(g.matrix[0, 0]) ** 2 for g in circ.layers[0]]))
    s = syn.synthesis_of_circuit(circ)
    est = dnc.a_full(s, None, 0.1, 3, config=dnc.DncConfig(profile="desk", cap=24))
    assert abs(est - exact) <= 0.1


def test_a_full_on_a_128_qubit_chain_keeps_its_dense_leaves_small(monkeypatch):
    # the desk eta grows with n (4 here), so the recursion halves the chain
    # until its pieces are narrower than w0 before it evaluates them densely
    circ = weak((128, 1, 1), 1, seed=128, strength=0.1)
    exact = float(np.prod([abs(g.matrix[0, 0]) ** 2 for g in circ.layers[0]]))
    sizes = []
    value_exact = oracle.synthesis_value_exact

    def recording(s, cap=oracle.DEFAULT_CAP):
        sizes.append(s.gamma.n_qubits)
        return value_exact(s, cap=cap)

    monkeypatch.setattr(oracle, "synthesis_value_exact", recording)
    s = syn.synthesis_of_circuit(circ)
    est = dnc.a_full(s, None, 0.1, 3, config=dnc.DncConfig(profile="desk", cap=24))
    assert abs(est - exact) <= 0.1
    assert sizes and max(sizes) <= 14
