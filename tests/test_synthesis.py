import numpy as np
import pytest

from dncsim import geomcircuit as gc, oracle, synthesis as syn
from dncsim.harness import generate_circuit

CALC = syn.CutCalculus(mode="exact-spectral", K=2, T=2)


def weak_chain(n, depth=1, seed=5, strength=0.15):
    return generate_circuit(
        {"kind": "brickwork", "dims": [n], "depth": depth, "seed": seed, "gates": "weak", "strength": strength}
    )


def test_synthesis_of_circuit_trivial_registers():
    circ = generate_circuit({"kind": "identity", "dims": [4], "depth": 1})
    s = syn.synthesis_of_circuit(circ)
    assert s.L == () and s.M == ()
    assert len(s.N) == 4
    assert oracle.synthesis_value_exact(s) == pytest.approx(1.0)


def test_synthesis_value_h_pair():
    circ = gc.circuit((2,), [[gc.gate("H", [(0,)]), gc.gate("H", [(1,)])]])
    assert oracle.synthesis_value_exact(syn.synthesis_of_circuit(circ)) == pytest.approx(0.25)


def test_synthesis_value_equals_output_probability():
    circ = generate_circuit({"kind": "brickwork", "dims": [8], "depth": 2, "seed": 30, "gates": "haar"})
    s = syn.synthesis_of_circuit(circ)
    assert oracle.synthesis_value_exact(s) == pytest.approx(
        oracle.output_probability(circ, "0" * 8), abs=1e-12
    )


def test_registers_must_partition_sites():
    circ = generate_circuit({"kind": "identity", "dims": [3], "depth": 1})
    with pytest.raises(ValueError, match="partition"):
        syn.Synthesis(gamma=circ, L=(), M=(), N=((0,), (1,)), declared_axes=(0,))


# ---------------------------------------------------------------------------
# cut projectors, kappa
# ---------------------------------------------------------------------------


def test_cut_projector_rank_one_for_product_circuit():
    circ = generate_circuit({"kind": "product", "dims": [8], "depth": 1, "seed": 6, "strength": 0.4})
    s = syn.synthesis_of_circuit(circ)
    proj = syn.cut_projector(s, gc.Slice(0, 3, 5), CALC)
    assert np.linalg.matrix_rank(proj, tol=1e-8) == 1
    assert np.abs(proj @ proj - proj).max() < 1e-9


def test_cut_projector_full_support_acts_as_identity_on_state():
    # depth-2 chain where the cut state has rank 2; tau keeps everything
    circ = generate_circuit({"kind": "brickwork", "dims": [10], "depth": 2, "seed": 23, "gates": "haar"})
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 3, 7)
    data = syn.cut_data(s, sl, CALC)
    assert int(data.kept.sum()) >= 2
    proj = syn.cut_projector(s, sl, CALC)
    rho = data.amat @ data.amat.conj().T
    assert np.abs(proj @ rho - rho).max() < 1e-9


def test_cut_projector_idempotent_hermitian_commutes():
    circ = weak_chain(10, depth=2, seed=9, strength=0.2)
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 3, 7)
    proj = syn.cut_projector(s, sl, CALC)
    data = syn.cut_data(s, sl, CALC)
    rho = data.amat @ data.amat.conj().T
    assert np.abs(proj - proj.conj().T).max() < 1e-10
    assert np.abs(proj @ proj - proj).max() < 1e-9
    assert np.linalg.norm(proj @ rho - rho @ proj, 2) < 1e-9


def test_kappa_rank_one_equals_trace():
    circ = generate_circuit({"kind": "product", "dims": [8], "depth": 1, "seed": 6, "strength": 0.4})
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 3, 5)
    data = syn.cut_data(s, sl, CALC)
    for T in (1, 2, 3):
        assert syn.kappa(s, sl, T) == pytest.approx(data.weight, abs=1e-10)


def test_kappa_from_spectrum_arithmetic():
    # maximally mixed one-qubit state at T = 1: (2 (1/2)^2)^(1/2) = 1/sqrt(2)
    assert syn.kappa_from_spectrum([0.5, 0.5], 1) == pytest.approx(1 / np.sqrt(2))
    assert syn.kappa_from_spectrum([0.7], 5) == pytest.approx(0.7)


def test_kappa_from_spectrum_stays_in_range():
    # mu^2T underflows here, but kappa lies between mu_max and rank^(1/2T) mu_max
    assert syn.kappa_from_spectrum([0.6, 0.3], 1000) == pytest.approx(0.6, rel=1e-12)
    assert syn.kappa_from_spectrum([1e-200], 1) == pytest.approx(1e-200, rel=1e-12)
    assert syn.kappa_from_spectrum([1e-200, 1e-200], 1) == pytest.approx(np.sqrt(2) * 1e-200, rel=1e-12)
    with pytest.raises(gc.CutError, match="non-heavy"):
        syn.kappa_from_spectrum([0.0, 0.0], 1000)


def test_kappa_matches_eigenvalue_sum_formula():
    circ = generate_circuit({"kind": "brickwork", "dims": [10], "depth": 2, "seed": 23, "gates": "haar"})
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 3, 7)
    data = syn.cut_data(s, sl, CALC)
    rho = data.amat @ data.amat.conj().T
    lam = np.clip(np.linalg.eigvalsh(rho), 0, None)
    assert syn.kappa(s, sl, 2) == pytest.approx(float(np.sum(lam**4) ** 0.25), abs=1e-10)


def test_kappa_zero_trace_raises():
    circ = generate_circuit({"kind": "x_layer", "dims": [8], "depth": 1})
    s = syn.synthesis_of_circuit(circ)
    with pytest.raises(gc.CutError, match="non-heavy"):
        syn.kappa(s, gc.Slice(0, 3, 5), 2)


def test_kappa_invariant_under_back_local_unitaries():
    base = weak_chain(10, seed=40)
    s0 = syn.synthesis_of_circuit(base)
    sl = gc.Slice(0, 4, 6)
    k0 = syn.kappa(s0, sl, 2)
    # prepend a layer acting only on the back region
    rng = np.random.default_rng(1)
    from scipy.stats import unitary_group
    extra = (gc.Gate(unitary_group.rvs(4, random_state=rng), ((0,), (1,))),)
    layers = (extra,) + base.layers
    modified = gc.LatticeCircuit(base.dims, base.depth + 1, layers)
    # widen the slice to keep light-cone separation at the new depth
    sl2 = gc.Slice(0, 3, 7)
    k_mod = syn.kappa(syn.synthesis_of_circuit(modified), sl2, 2)
    k_base = syn.kappa(s0, sl2, 2)
    assert k_mod == pytest.approx(k_base, abs=1e-10)
    assert k0 > 0


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def single_cut_estimate(s, sl, calc=CALC):
    data = syn.cut_data(s, sl, calc)
    sp = syn.split_at_cuts(data)
    vL = oracle.synthesis_value_exact(sp.left)
    vR = oracle.synthesis_value_exact(sp.right)
    return vL * vR / data.kappa ** (4 * calc.K + 1), sp, data


def test_split_identity_children_evaluate_to_one():
    circ = generate_circuit({"kind": "identity", "dims": [10], "depth": 1})
    s = syn.synthesis_of_circuit(circ)
    _, sp, _ = single_cut_estimate(s, gc.Slice(0, 4, 6))
    assert oracle.synthesis_value_exact(sp.left) == pytest.approx(1.0, abs=1e-12)
    assert oracle.synthesis_value_exact(sp.right) == pytest.approx(1.0, abs=1e-12)


def test_split_product_state_factorizes_exactly():
    circ = generate_circuit({"kind": "product", "dims": [10], "depth": 1, "seed": 3, "strength": 0.25})
    s = syn.synthesis_of_circuit(circ)
    est, _, data = single_cut_estimate(s, gc.Slice(0, 4, 6))
    v = oracle.synthesis_value_exact(s)
    assert int(data.kept.sum()) == 1
    assert est == pytest.approx(v, abs=1e-12)


def test_split_single_cut_matches_inserted_term():
    circ = weak_chain(12, seed=17)
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 4, 6)
    est, _, _ = single_cut_estimate(s, sl)
    t_i = syn.inserted_value(s, [sl], CALC)
    assert est == pytest.approx(t_i, rel=1e-6)


def test_split_child_register_roles_and_annotations():
    circ = weak_chain(12, seed=17)
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 4, 6)
    sp = syn.split_at_cuts(syn.cut_data(s, sl, CALC))
    # left child: band is traced (L) and carries a sandwich operator
    assert set(sp.left.L) == {(5,)}
    assert any(op.kind == "sandwich" for op in sp.left.cut_ops)
    # right child: band is post-selected (M) and carries an input state
    assert ((1,),) == tuple(sp.right.M)
    assert any(op.kind == "input_state" for op in sp.right.cut_ops)


def test_two_cut_middle_child_roles_annotations_and_origin():
    circ = weak_chain(14, seed=9)
    s = syn.synthesis_of_circuit(circ)
    i, j = gc.Slice(0, 4, 6), gc.Slice(0, 8, 10)
    data_i, data_j = syn.cut_data(s, i, CALC), syn.cut_data(s, j, CALC)
    mid = syn.middle_between_cuts(data_i, data_j).middle
    assert mid.gamma.dims == (j.hi - i.lo,)
    band_i = tuple((q[0] - i.lo,) for q in data_i.band)  # post-selected, loaded
    band_j = tuple((q[0] - i.lo,) for q in data_j.band)  # traced, sandwiched
    assert band_i == ((1,),) and band_j == ((5,),)
    assert mid.M == band_i and mid.L == band_j
    assert set(mid.N) == set(mid.gamma.sites()) - set(band_i) - set(band_j)
    assert [op.kind for op in mid.cut_ops] == ["input_state", "sandwich"]
    assert mid.cut_ops[0].qubits == band_i and mid.cut_ops[1].qubits == band_j
    assert np.array_equal(mid.cut_ops[0].matrix, data_i.right_input)


def test_right_child_split_again_adds_origins_and_shifts_annotations():
    s = syn.synthesis_of_circuit(weak_chain(16, seed=23))
    a = syn.split_at_cuts(syn.cut_data(s, gc.Slice(0, 14, 16), CALC)).left  # sandwich on (15,)
    b = syn.split_at_cuts(syn.cut_data(a, gc.Slice(0, 2, 4), CALC)).right
    c = syn.split_at_cuts(syn.cut_data(b, gc.Slice(0, 4, 6), CALC)).right
    assert a.gamma.dims == (16,) and b.gamma.dims == (14,) and c.gamma.dims == (10,)
    (sandwich,) = [op for op in a.cut_ops if op.kind == "sandwich"]
    assert [(op.kind, op.qubits) for op in b.cut_ops] == [("sandwich", ((13,),)), ("input_state", ((1,),))]
    assert [(op.kind, op.qubits) for op in c.cut_ops] == [("sandwich", ((9,),)), ("input_state", ((1,),))]
    assert c.cut_ops[0].matrix is sandwich.matrix
    assert c.M == ((1,),) and c.L == ((9,),)  # the sandwiched band stays traced
    assert c.N == tuple((x,) for x in range(c.gamma.dims[0]) if x not in (1, 9))


def test_segment_carves_sites_gates_roles_and_annotations():
    circ = weak_chain(10, seed=3)
    s = syn.split_at_cuts(syn.cut_data(syn.synthesis_of_circuit(circ), gc.Slice(0, 2, 4), CALC)).right
    inside = lambda g: all(1 <= q[0] < 5 for q in g.qubits)
    ids = {(t, gi) for t, layer in enumerate(s.gamma.layers) for gi, g in enumerate(layer) if inside(g)}
    seg = syn._segment(s, 0, 1, 5, ids, s.cut_ops)
    assert seg.gamma.dims == (4,)
    assert seg.M == ((0,),) and seg.N == ((1,), (2,), (3,))  # roles of s, shifted
    assert [op.qubits for op in seg.cut_ops] == [((0,),)]
    shifted = [tuple((q[0] - 1,) for q in g.qubits) for _, g in s.gamma.gates() if inside(g)]
    assert [g.qubits for _, g in seg.gamma.gates()] == shifted
    traced = syn._segment(s, 0, 2, 6, set(), s.cut_ops, lambda q: "L")
    assert traced.cut_ops == () and traced.L == tuple(traced.gamma.sites())


def test_registers_must_list_each_site_once():
    # the role sets cover the lattice and their sizes add up to its 3 sites,
    # but L lists (1,0,0) twice
    circ = generate_circuit({"kind": "identity", "dims": [3, 1, 1], "depth": 1})
    with pytest.raises(ValueError, match="once"):
        syn.Synthesis(gamma=circ, L=((1, 0, 0), (1, 0, 0)), M=(), N=((0, 0, 0), (2, 0, 0)), declared_axes=(0, 1, 2))


class _CountedLayer(tuple):
    """A layer of gates that records which of its gates are read."""

    def __getitem__(self, gi):
        self.read.append((self.t, gi))
        return super().__getitem__(gi)

    def __iter__(self):
        self.read.append((self.t, "all"))
        return super().__iter__()


def test_carving_a_window_costs_the_size_of_the_window(monkeypatch):
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [1024, 1, 1], "depth": 1, "seed": 1024, "gates": "weak", "strength": 0.1}
    )
    s = syn.synthesis_of_circuit(circ)
    read = []
    layers = []
    for t, layer in enumerate(circ.layers):
        counted = _CountedLayer(layer)
        counted.t, counted.read = t, read
        layers.append(counted)
    object.__setattr__(circ, "layers", tuple(layers))
    parent_sites = []
    sites = gc.LatticeCircuit.sites
    monkeypatch.setattr(gc.LatticeCircuit, "sites", lambda c: parent_sites.append(1) if c is circ else sites(c))

    def ids_in(lo, hi):
        return {(t, gi) for t, layer in enumerate(circ.layers) for gi, g in enumerate(tuple.__iter__(layer))
                if all(lo <= q[0] < hi for q in g.qubits)}

    ids = ids_in(500, 504)
    window = syn._segment(s, 0, 500, 504, ids, role=lambda q: "M" if q[0] == 501 else None)
    assert parent_sites == []
    assert sorted(read) == sorted(ids)  # each given gate once, no other
    assert window.gamma.dims == (4, 1, 1)
    assert window.M == ((1, 0, 0),) and window.N == ((0, 0, 0), (2, 0, 0), (3, 0, 0))
    assert [g.qubits for _, g in window.gamma.gates()] == [((0, 0, 0), (1, 0, 0)), ((2, 0, 0), (3, 0, 0))]
    # a piece at 0 needs no shift, so it keeps the parent's gates
    read.clear()
    front = syn._segment(s, 0, 0, 4, ids_in(0, 4))
    assert parent_sites == [] and len(read) == 2
    kept = [g for _, g in front.gamma.gates()]
    assert len(kept) == 2 and all(g is tuple.__getitem__(circ.layers[0], gi) for gi, g in enumerate(kept))


def test_split_child_width_bound():
    circ = weak_chain(16, seed=19)
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 6, 8)
    sp = syn.split_at_cuts(syn.cut_data(s, sl, CALC))
    ell = 16
    bound = 0.75 * ell + sl.width
    assert sp.left.gamma.dims[0] <= bound
    assert sp.right.gamma.dims[0] <= bound


def test_split_rejects_bad_slices():
    circ = weak_chain(12, seed=17)
    s = syn.synthesis_of_circuit(circ)
    with pytest.raises(syn.SplitError):
        syn.middle_between_cuts(syn.cut_data(s, gc.Slice(0, 4, 6), CALC), syn.cut_data(s, gc.Slice(0, 5, 7), CALC))  # overlap
    with pytest.raises(syn.SplitError):
        syn.middle_between_cuts(syn.cut_data(s, gc.Slice(0, 4, 6), CALC), syn.cut_data(s, gc.Slice(0, 10, 14), CALC))  # outside


def test_middle_between_cuts_rejects_cuts_of_other_syntheses_and_j_left_of_i():
    s = syn.synthesis_of_circuit(weak_chain(14, seed=9))
    twin = syn.synthesis_of_circuit(weak_chain(14, seed=9))  # equal, but another synthesis
    i, j = gc.Slice(0, 4, 6), gc.Slice(0, 8, 10)
    data_i, data_j = syn.cut_data(s, i, CALC), syn.cut_data(s, j, CALC)
    with pytest.raises(syn.SplitError, match="different syntheses"):
        syn.middle_between_cuts(data_i, syn.cut_data(twin, j, CALC))
    with pytest.raises(syn.SplitError, match="not right of i"):
        syn.middle_between_cuts(data_j, data_i)
    inner = syn.Synthesis(s.gamma, s.L, s.M, s.N, s.declared_axes,
                          cut_ops=(syn.CutOp("sandwich", ((7,),), matrix=np.eye(2)),))
    with pytest.raises(syn.SplitError, match="inside the middle"):
        syn.middle_between_cuts(syn.cut_data(inner, i, CALC), syn.cut_data(inner, j, CALC))


OFF_LATTICE = [gc.Slice(0, 7, 9), gc.Slice(1, 0, 2), gc.Slice(0, 9, 11), gc.Slice(0, -1, 1)]


@pytest.mark.parametrize("sl", OFF_LATTICE, ids=str)
def test_every_cut_path_rejects_a_slice_off_the_lattice(sl):
    # before the check in causal_split these raised IndexError or TypeError,
    # or, for [-1, 1), gave the weight 0.997 of a slice hanging off the chain
    s = syn.synthesis_of_circuit(weak_chain(8, seed=1, strength=0.1))
    inside = gc.Slice(0, 2, 4)
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.cut_data(s, sl, CALC)
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.kappa(s, sl, 2, CALC)
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.cut_projector(s, sl, CALC)
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.cut_data(s, sl, CALC).insertion
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.split_at_cuts(syn.cut_data(s, sl, CALC))
    if sl.axis == 0 and sl.lo > inside.hi:
        with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
            syn.middle_between_cuts(syn.cut_data(s, inside, CALC), syn.cut_data(s, sl, CALC))


def test_two_cut_middle_matches_inserted_term():
    circ = weak_chain(14, seed=9)
    s = syn.synthesis_of_circuit(circ)
    i, j = gc.Slice(0, 4, 6), gc.Slice(0, 8, 10)
    data_i, data_j = syn.cut_data(s, i, CALC), syn.cut_data(s, j, CALC)
    left, right = syn.split_at_cuts(data_i), syn.split_at_cuts(data_j)
    vL = oracle.synthesis_value_exact(left.left)
    vM = oracle.synthesis_value_exact(syn.middle_between_cuts(data_i, data_j).middle)
    vR = oracle.synthesis_value_exact(right.right)
    est = vL * vM * vR / (data_i.kappa * data_j.kappa) ** (4 * CALC.K + 1)
    t_ij = syn.inserted_value(s, [i, j], CALC)
    v = oracle.synthesis_value_exact(s)
    # per-term agreement within the measured residual scale, and the signed
    # two-cut combination lands on the target
    assert abs(est - t_ij) < 0.05
    combo = (
        syn.inserted_value(s, [i], CALC) + syn.inserted_value(s, [j], CALC) - t_ij
    )
    assert abs(combo - v) < 0.05
    est_combo = (
        single_cut_estimate(s, i)[0] + single_cut_estimate(s, j)[0] - est
    )
    assert abs(est_combo - v) < 5e-3


def test_phi_descriptor_insertions():
    circ = weak_chain(16, seed=29)
    s = syn.synthesis_of_circuit(circ)
    i, j = gc.Slice(0, 2, 4), gc.Slice(0, 10, 12)
    phi = syn.middle_between_cuts(syn.cut_data(s, i, CALC), syn.cut_data(s, j, CALC))
    mid_slice_local = gc.Slice(0, 4, 6)  # absolute [6, 8) shifted by i.lo = 2
    annotated = phi.with_insertions([mid_slice_local], CALC)
    assert any(op.kind == "insertion" for op in annotated.cut_ops)
    val = oracle.synthesis_value_exact(annotated)
    assert 0.0 <= val <= 1.0 + 1e-9


def test_split_through_insertion_raises():
    circ = weak_chain(16, seed=29)
    s = syn.synthesis_of_circuit(circ)
    annotated = syn.Synthesis(
        gamma=s.gamma,
        L=s.L,
        M=s.M,
        N=s.N,
        declared_axes=s.declared_axes,
        cut_ops=(syn.cut_data(s, gc.Slice(0, 6, 8), CALC).insertion,),
    )
    with pytest.raises(syn.SplitError):
        syn.cut_data(annotated, gc.Slice(0, 6, 8), CALC)
    # an insertion wholly in front of the cut is refused as well
    with pytest.raises(syn.SplitError, match="insertion"):
        syn.cut_data(annotated, gc.Slice(0, 2, 4), CALC)


def test_power_mode_residual_reported_not_asserted(capsys):
    # power-mode cut operator applied to rho vs the exact projector: the
    # residual shrinks with K and is reported
    circ = generate_circuit({"kind": "brickwork", "dims": [10], "depth": 2, "seed": 23, "gates": "haar"})
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 3, 7)
    exact = syn.cut_projector(s, sl, syn.CutCalculus("exact-spectral", K=2, T=2))
    data = syn.cut_data(s, sl, CALC)
    rho = data.amat @ data.amat.conj().T
    lam = np.sort(np.clip(np.linalg.eigvalsh(rho), 0, None))[::-1]
    rows = []
    for K in (1, 2, 4):
        power = syn.cut_projector(s, sl, syn.CutCalculus("power-encoding", K=K, T=2))
        resid = float(np.linalg.norm(power @ rho - exact @ rho, 2))
        rows.append((K, resid, float((lam[1] / data.kappa) ** (2 * K))))
    print("power-mode projector residuals (K, measured, (lam2/kappa)^2K):", rows)
    # reported, not asserted with a fixed tolerance; sanity: bounded by the norm
    assert all(r[1] <= lam[0] + 1e-9 for r in rows)


def test_values_stay_in_unit_interval_across_splits():
    circ = weak_chain(12, seed=31, depth=2, strength=0.1)
    s = syn.synthesis_of_circuit(circ)
    sp = syn.split_at_cuts(syn.cut_data(s, gc.Slice(0, 4, 8), CALC))
    for child in (sp.left, sp.right):
        v = oracle.synthesis_value_exact(child)
        assert -1e-12 <= v <= 1.0 + 1e-9
