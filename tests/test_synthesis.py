import math

import numpy as np
import pytest

from dncsim import geomcircuit as gc, oracle, synthesis as syn
from dncsim.harness import generate_circuit

KAPPA_T = 2  # the T of kappa = (tr rho^{2T})^{1/(2T)}


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
    for L, M, N in [
        ((), (), ((0,), (1,))),  # (2,) has no role
        ((), ((3,),), ((0,), (1,), (2,))),  # (3,) is off the lattice
        (((0, 0),), (), ((1,), (2,))),  # a coordinate of another lattice
    ]:
        with pytest.raises(ValueError, match="partition"):
            syn.Synthesis(gamma=circ, L=L, M=M, N=N, declared_axes=(0,))


@pytest.mark.parametrize("axes", [(3,), (0, 0), (-1,)])
def test_declared_axes_must_be_distinct_axes_of_the_lattice(axes):
    # (3,) once built and then failed in a_full with a bare IndexError; (0, 0)
    # built and was estimated as a lattice of two declared axes
    circ = weak_chain(16)
    with pytest.raises(ValueError, match="declared_axes"):
        syn.Synthesis(circ, (), (), circ.sites(), declared_axes=axes)
    assert syn.Synthesis(circ, (), (), circ.sites(), declared_axes=(0,)).declared_dims == (16,)


def test_a_synthesis_and_its_pieces_are_immutable_boxes():
    s = syn.synthesis_of_circuit(weak_chain(12, seed=17))
    piece = syn.split_at_cuts(syn.cut_data(s, gc.Slice(0, 4, 6), KAPPA_T)).right
    for x in (s, piece):
        assert type(x) is syn.Synthesis
        for name, value in (("roles", b""), ("L", ()), ("gamma", None), ("registers", ((), ()))):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(x, name, value)
        with pytest.raises(AttributeError, match="immutable"):
            del x.ops
    assert piece.gamma.dims == (8,) and piece.M == ((1,),)  # derived fields still fill on first read
    assert syn.Synthesis.__subclasses__() == []


def test_a_root_is_swept_without_a_pass_over_its_sites(monkeypatch):
    # a root built from its fields records its registers, as given, when it is
    # built; only a carved piece derives them from its role bytes
    calls = []
    root_sites = syn.Synthesis.root_sites
    monkeypatch.setattr(syn.Synthesis, "root_sites", lambda self, *a: calls.append(a) or root_sites(self, *a))
    circ = weak_chain(12, seed=17)
    sites = circ.sites()
    s = syn.Synthesis(circ, sites[8:], sites[:2], sites[7:1:-1], declared_axes=(0,))
    assert s.registers == (sites[:2], sites[7:1:-1])
    value = oracle.synthesis_value_exact(s)
    assert calls == []
    piece = syn._recast(s, roles=s.roles)
    assert oracle.synthesis_value_exact(piece) == value
    assert calls == [("M",), ("N",)]
    assert piece.registers == (sites[:2], sites[2:8])


# ---------------------------------------------------------------------------
# cut projectors, kappa
# ---------------------------------------------------------------------------


def test_cut_projector_rank_one_for_product_circuit():
    circ = generate_circuit({"kind": "product", "dims": [8], "depth": 1, "seed": 6, "strength": 0.4})
    s = syn.synthesis_of_circuit(circ)
    proj = syn.cut_projector(s, gc.Slice(0, 3, 5))
    assert np.linalg.matrix_rank(proj, tol=1e-8) == 1
    assert np.abs(proj @ proj - proj).max() < 1e-9


def test_cut_projector_full_support_acts_as_identity_on_state():
    # depth-2 chain where the cut state has rank 2; tau keeps everything
    circ = generate_circuit({"kind": "brickwork", "dims": [10], "depth": 2, "seed": 23, "gates": "haar"})
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 3, 7)
    data = syn.cut_data(s, sl, KAPPA_T)
    assert int(data.kept.sum()) >= 2
    proj = syn.cut_projector(s, sl)
    rho = data.amat @ data.amat.conj().T
    assert np.abs(proj @ rho - rho).max() < 1e-9


def test_cut_projector_idempotent_hermitian_commutes():
    circ = weak_chain(10, depth=2, seed=9, strength=0.2)
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 3, 7)
    proj = syn.cut_projector(s, sl)
    data = syn.cut_data(s, sl, KAPPA_T)
    rho = data.amat @ data.amat.conj().T
    assert np.abs(proj - proj.conj().T).max() < 1e-10
    assert np.abs(proj @ proj - proj).max() < 1e-9
    assert np.linalg.norm(proj @ rho - rho @ proj, 2) < 1e-9


def test_kappa_rank_one_equals_trace():
    circ = generate_circuit({"kind": "product", "dims": [8], "depth": 1, "seed": 6, "strength": 0.4})
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 3, 5)
    data = syn.cut_data(s, sl, KAPPA_T)
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
    data = syn.cut_data(s, sl, KAPPA_T)
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


def single_cut_estimate(s, sl):
    data = syn.cut_data(s, sl, KAPPA_T)
    sp = syn.split_at_cuts(data)
    vL = oracle.synthesis_value_exact(sp.left)
    vR = oracle.synthesis_value_exact(sp.right)
    return vL * vR / data.kappa, sp, data


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


def two_eigenvalue_gadget(p):
    """[10,1,1] depth 2: U|00> = sqrt(p)|00> + sqrt(1-p)|11> on (2,3), (4,5)
    and (6,7), then U^dagger on (3,4) and (5,6).  Its cut state at [3, 7)
    keeps two eigenvalues, where a heavy cut of the benchmark keeps one."""
    c, s = math.sqrt(p), math.sqrt(1 - p)
    u = np.eye(4, dtype=complex)
    u[0, 0] = u[3, 3] = c
    u[3, 0], u[0, 3] = s, -s  # a rotation in the {|00>, |11>} plane

    def pairs(m, starts):
        return [gc.gate(m, ((a, 0, 0), (a + 1, 0, 0))) for a in starts]

    return gc.circuit((10, 1, 1), [pairs(u, (2, 4, 6)), pairs(u.conj().T, (3, 5))])


@pytest.mark.parametrize("p", [0.92, 0.8])
def test_split_keeping_two_eigenvalues_factorizes_exactly(p):
    # at p = 0.92 the cut state's weight is 0.659 and its second eigenvalue,
    # 3.3e-6, lies above TAU; at p = 0.8 they are 0.328 and 3.2e-4
    s = syn.synthesis_of_circuit(two_eigenvalue_gadget(p))
    est, _, data = single_cut_estimate(s, gc.Slice(0, 3, 7))
    assert int(data.kept.sum()) == 2
    assert abs(est - oracle.synthesis_value_exact(s)) <= 1e-12


def test_split_single_cut_matches_inserted_term():
    circ = weak_chain(12, seed=17)
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 4, 6)
    est, _, _ = single_cut_estimate(s, sl)
    t_i = syn.inserted_value(s, [sl], KAPPA_T)
    assert est == pytest.approx(t_i, rel=1e-6)


def test_split_child_register_roles_and_annotations():
    circ = weak_chain(12, seed=17)
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 4, 6)
    sp = syn.split_at_cuts(syn.cut_data(s, sl, KAPPA_T))
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
    data_i, data_j = syn.cut_data(s, i, KAPPA_T), syn.cut_data(s, j, KAPPA_T)
    mid = syn.middle_between_cuts(data_i, data_j).middle
    assert mid.gamma.dims == (j.hi - i.lo,)
    band_i = tuple((q[0] - i.lo,) for q in data_i.band)  # post-selected, loaded
    band_j = tuple((q[0] - i.lo,) for q in data_j.band)  # traced, sandwiched
    assert band_i == ((1,),) and band_j == ((5,),)
    assert mid.M == band_i and mid.L == band_j
    assert set(mid.N) == set(mid.gamma.sites()) - set(band_i) - set(band_j)
    assert [op.kind for op in mid.cut_ops] == ["input_state", "sandwich"]
    assert mid.cut_ops[0].qubits == band_i and mid.cut_ops[1].qubits == band_j
    assert np.array_equal(mid.cut_ops[0].factors, data_i.input_state.factors)


def test_right_child_split_again_adds_origins_and_shifts_annotations():
    s = syn.synthesis_of_circuit(weak_chain(16, seed=23))
    a = syn.split_at_cuts(syn.cut_data(s, gc.Slice(0, 14, 16), KAPPA_T)).left  # sandwich on (15,)
    b = syn.split_at_cuts(syn.cut_data(a, gc.Slice(0, 2, 4), KAPPA_T)).right
    c = syn.split_at_cuts(syn.cut_data(b, gc.Slice(0, 4, 6), KAPPA_T)).right
    assert a.gamma.dims == (16,) and b.gamma.dims == (14,) and c.gamma.dims == (10,)
    (sandwich,) = [op for op in a.cut_ops if op.kind == "sandwich"]
    assert [(op.kind, op.qubits) for op in b.cut_ops] == [("sandwich", ((13,),)), ("input_state", ((1,),))]
    assert [(op.kind, op.qubits) for op in c.cut_ops] == [("sandwich", ((9,),)), ("input_state", ((1,),))]
    assert c.cut_ops[0].matrix is sandwich.matrix
    assert c.M == ((1,),) and c.L == ((9,),)  # the sandwiched band stays traced
    assert c.N == tuple((x,) for x in range(c.gamma.dims[0]) if x not in (1, 9))


def test_segment_carves_sites_gates_roles_and_annotations():
    circ = weak_chain(10, seed=3)
    s = syn.split_at_cuts(syn.cut_data(syn.synthesis_of_circuit(circ), gc.Slice(0, 2, 4), KAPPA_T)).right
    assert s.origin == (2,)  # a view of circ: its gate ids, roles and annotations in circ's frame
    inside = lambda g, o=0: all(1 <= q[0] - o < 5 for q in g.qubits)
    ids = tuple(i for i in s.ids if inside(circ.gate_table[0][i], o=2))
    seg = syn._segment(s, 0, 1, 5, ids, s.ops)
    assert seg.origin == (3,) and seg.root is circ
    assert seg.gamma.dims == (4,)
    assert seg.M == ((0,),) and seg.N == ((1,), (2,), (3,))  # roles of s, shifted
    assert [op.qubits for op in seg.cut_ops] == [((0,),)]
    shifted = [tuple((q[0] - 1,) for q in g.qubits) for _, g in s.gamma.gates() if inside(g)]
    assert [g.qubits for _, g in seg.gamma.gates()] == shifted
    traced = syn._segment(s, 0, 2, 6, (), s.ops, syn._ALL_L)
    assert traced.cut_ops == () and traced.L == tuple(traced.gamma.sites())


def test_registers_must_list_each_site_once():
    # the role sets cover the lattice and their sizes add up to its 3 sites,
    # but L lists (1,0,0) twice
    circ = generate_circuit({"kind": "identity", "dims": [3, 1, 1], "depth": 1})
    with pytest.raises(ValueError, match="once"):
        syn.Synthesis(gamma=circ, L=((1, 0, 0), (1, 0, 0)), M=(), N=((0, 0, 0), (2, 0, 0)), declared_axes=(0, 1, 2))
    # a site listed in two roles
    with pytest.raises(ValueError, match="once"):
        syn.Synthesis(gamma=circ, L=((1, 0, 0),), M=((1, 0, 0),), N=((0, 0, 0), (2, 0, 0)), declared_axes=(0, 1, 2))


class _CountedGates(tuple):
    """A root's gate table that records which of its gates are read."""

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)

    def __iter__(self):
        self.read.append("all")
        return super().__iter__()


def test_carving_a_window_costs_the_size_of_the_window(monkeypatch):
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [1024, 1, 1], "depth": 1, "seed": 1024, "gates": "weak", "strength": 0.1}
    )
    s = syn.synthesis_of_circuit(circ)
    assert len(s.roles) == 1024  # the root's box and gate index are built with the root
    gates, layers = circ.gate_table
    read = []
    counted = _CountedGates(gates)
    counted.read = read
    circ.__dict__["gate_table"] = (counted, layers)
    parent_sites = []
    sites = gc.LatticeCircuit.sites
    monkeypatch.setattr(gc.LatticeCircuit, "sites", lambda c: parent_sites.append(1) if c is circ else sites(c))

    def ids_in(lo, hi):
        return tuple(i for i, g in enumerate(gates) if all(lo <= q[0] < hi for q in g.qubits))

    ids = ids_in(500, 504)
    window = syn._segment(s, 0, 500, 504, ids, marks=((501, 502, b"M"),))
    assert parent_sites == [] and read == []  # carving visits no site and no gate
    assert window.gamma.dims == (4, 1, 1)
    assert sorted(read) == sorted(ids)  # its own frame reads each of its gates once, no other
    assert window.M == ((1, 0, 0),) and window.N == ((0, 0, 0), (2, 0, 0), (3, 0, 0))
    assert [g.qubits for _, g in window.gamma.gates()] == [((0, 0, 0), (1, 0, 0)), ((2, 0, 0), (3, 0, 0))]
    # a piece at 0 needs no shift, so it keeps the parent's gates
    read.clear()
    front = syn._segment(s, 0, 0, 4, ids_in(0, 4))
    kept = [g for _, g in front.gamma.gates()]
    assert parent_sites == [] and len(read) == 2
    assert len(kept) == 2 and all(g is circ.layers[0][gi] for gi, g in enumerate(kept))


def test_split_child_width_bound():
    circ = weak_chain(16, seed=19)
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 6, 8)
    sp = syn.split_at_cuts(syn.cut_data(s, sl, KAPPA_T))
    ell = 16
    bound = 0.75 * ell + sl.width
    assert sp.left.gamma.dims[0] <= bound
    assert sp.right.gamma.dims[0] <= bound


def test_split_rejects_bad_slices():
    circ = weak_chain(12, seed=17)
    s = syn.synthesis_of_circuit(circ)
    with pytest.raises(syn.SplitError):
        syn.middle_between_cuts(syn.cut_data(s, gc.Slice(0, 4, 6), KAPPA_T), syn.cut_data(s, gc.Slice(0, 5, 7), KAPPA_T))  # overlap
    with pytest.raises(syn.SplitError):
        syn.middle_between_cuts(syn.cut_data(s, gc.Slice(0, 4, 6), KAPPA_T), syn.cut_data(s, gc.Slice(0, 10, 14), KAPPA_T))  # outside


def test_middle_between_cuts_rejects_cuts_of_other_syntheses_and_j_left_of_i():
    s = syn.synthesis_of_circuit(weak_chain(14, seed=9))
    twin = syn.synthesis_of_circuit(weak_chain(14, seed=9))  # equal, but another synthesis
    i, j = gc.Slice(0, 4, 6), gc.Slice(0, 8, 10)
    data_i, data_j = syn.cut_data(s, i, KAPPA_T), syn.cut_data(s, j, KAPPA_T)
    with pytest.raises(syn.SplitError, match="different syntheses"):
        syn.middle_between_cuts(data_i, syn.cut_data(twin, j, KAPPA_T))
    with pytest.raises(syn.SplitError, match="not right of i"):
        syn.middle_between_cuts(data_j, data_i)
    inner = syn.Synthesis(s.gamma, s.L, s.M, s.N, s.declared_axes,
                          cut_ops=(syn.CutOp("sandwich", ((7,),), matrix=np.eye(2)),))
    with pytest.raises(syn.SplitError, match="inside the middle"):
        syn.middle_between_cuts(syn.cut_data(inner, i, KAPPA_T), syn.cut_data(inner, j, KAPPA_T))


OFF_LATTICE = [gc.Slice(0, 7, 9), gc.Slice(1, 0, 2), gc.Slice(0, 9, 11), gc.Slice(0, -1, 1)]


@pytest.mark.parametrize("sl", OFF_LATTICE, ids=str)
def test_every_cut_path_rejects_a_slice_off_the_lattice(sl):
    # before the check in causal_split these raised IndexError or TypeError,
    # or, for [-1, 1), gave the weight 0.997 of a slice hanging off the chain
    s = syn.synthesis_of_circuit(weak_chain(8, seed=1, strength=0.1))
    inside = gc.Slice(0, 2, 4)
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.cut_data(s, sl, KAPPA_T)
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.kappa(s, sl, 2)
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.cut_projector(s, sl)
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.cut_data(s, sl, KAPPA_T).insertion
    with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
        syn.split_at_cuts(syn.cut_data(s, sl, KAPPA_T))
    if sl.axis == 0 and sl.lo > inside.hi:
        with pytest.raises(syn.SplitError, match="outside the synthesis lattice"):
            syn.middle_between_cuts(syn.cut_data(s, inside, KAPPA_T), syn.cut_data(s, sl, KAPPA_T))


def test_two_cut_middle_matches_inserted_term():
    circ = weak_chain(14, seed=9)
    s = syn.synthesis_of_circuit(circ)
    i, j = gc.Slice(0, 4, 6), gc.Slice(0, 8, 10)
    data_i, data_j = syn.cut_data(s, i, KAPPA_T), syn.cut_data(s, j, KAPPA_T)
    left, right = syn.split_at_cuts(data_i), syn.split_at_cuts(data_j)
    vL = oracle.synthesis_value_exact(left.left)
    vM = oracle.synthesis_value_exact(syn.middle_between_cuts(data_i, data_j).middle)
    vR = oracle.synthesis_value_exact(right.right)
    est = vL * vM * vR / data_i.kappa / data_j.kappa
    t_ij = syn.inserted_value(s, [i, j], KAPPA_T)
    v = oracle.synthesis_value_exact(s)
    # per-term agreement within the measured residual scale, and the signed
    # two-cut combination lands on the target
    assert abs(est - t_ij) < 0.05
    combo = (
        syn.inserted_value(s, [i], KAPPA_T) + syn.inserted_value(s, [j], KAPPA_T) - t_ij
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
    phi = syn.middle_between_cuts(syn.cut_data(s, i, KAPPA_T), syn.cut_data(s, j, KAPPA_T))
    mid_slice_local = gc.Slice(0, 4, 6)  # absolute [6, 8) shifted by i.lo = 2
    annotated = phi.with_insertions([mid_slice_local], KAPPA_T)
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
        cut_ops=(syn.cut_data(s, gc.Slice(0, 6, 8), KAPPA_T).insertion,),
    )
    with pytest.raises(syn.SplitError):
        syn.cut_data(annotated, gc.Slice(0, 6, 8), KAPPA_T)
    # an insertion wholly in front of the cut is refused as well
    with pytest.raises(syn.SplitError, match="insertion"):
        syn.cut_data(annotated, gc.Slice(0, 2, 4), KAPPA_T)


def test_values_stay_in_unit_interval_across_splits():
    circ = weak_chain(12, seed=31, depth=2, strength=0.1)
    s = syn.synthesis_of_circuit(circ)
    sp = syn.split_at_cuts(syn.cut_data(s, gc.Slice(0, 4, 8), KAPPA_T))
    for child in (sp.left, sp.right):
        v = oracle.synthesis_value_exact(child)
        assert -1e-12 <= v <= 1.0 + 1e-9
