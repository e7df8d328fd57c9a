"""The light-cone cut_data against a dense reference, and at lengths it alone reaches.

The reference builds the cut state the direct way, at full width with one
`oracle.apply_gate` call per gate: the whole region behind the slice's upper
edge as one dense state for omega, and one column per band basis state
through all front gates for W.  cut_data builds the same quantities from
small light-cone windows, each one `oracle.synthesis_state` sweep: omega is
the band's reduced state of the window's projected state, and W one operator
sweep with the band's inputs left open.
"""
import dataclasses

import numpy as np
import pytest

from dncsim import dnc, geomcircuit as gc, oracle, synthesis as syn
from dncsim.harness import generate_circuit

T = 2  # the T of kappa = (tr rho^{2T})^{1/(2T)}


def weak(dims, depth, seed=7, strength=0.3):
    return generate_circuit(
        {"kind": "brickwork", "dims": list(dims), "depth": depth, "seed": seed, "gates": "weak", "strength": strength}
    )


def full_width_state(circ, ops):
    """circ on |0>, its input-state band (if `ops` has one) loaded as the
    purification sum_j y_j (x) |j> of Y Y^dagger with j on a trailing batch
    axis, every site held from the start and the gates run one at a time in
    layer order: (t, axis of each site)."""
    held, block = [], np.ones(())
    for op in ops:
        if op.kind == "input_state":
            held, block = list(op.qubits), op.factors.reshape([2] * len(op.qubits) + [-1])
    index = {q: i for i, q in enumerate(circ.sites())}
    t = oracle.product_state(len(index), [index[q] for q in held], block)
    for _, g in circ.gates():
        t = oracle.apply_gate(t, g.matrix, [index[q] for q in g.qubits])
    return t, index


def column_reference(gates, band, rest, ops):
    """W one column at a time at full width: column x is <0_band| S V
    |x_band, 0_rest>, V the gates and S the sandwiches of `ops`, with its
    rows over `rest` in that order."""
    sites = list(band) + list(rest)
    ridx = {q: i for i, q in enumerate(sites)}
    nb, nr = len(band), len(sites)
    W = np.zeros((2 ** len(rest), 2**nb), dtype=complex)
    for x in range(2**nb):
        col = np.zeros(2**nr, dtype=complex)
        col[x << len(rest)] = 1.0
        col = col.reshape([2] * nr)
        for g in gates:
            col = oracle.apply_gate(col, g.matrix, [ridx[q] for q in g.qubits])
        for op in ops:
            if op.kind == "sandwich":
                col = oracle.apply_sandwich(col, op, [ridx[q] for q in op.qubits])
        W[:, x] = col.reshape(2**nb, -1)[0]
    return W


def dense_reference(s, sl):
    """(weight, kappa, eigvals, left_op, right_input, rho_front, front projector Pi)
    from whole-region states.

    Everything here is in the own frame of s (its `gamma`, roles and
    `cut_ops`), apart from the package's cut machinery, which reads s as a
    box of its root circuit."""
    axis, d, circ = sl.axis, s.gamma.depth, s.gamma
    front = [q for q in circ.sites() if q[axis] >= sl.hi]
    band = [q for q in circ.sites() if sl.hi - d <= q[axis] < sl.hi]
    cone_ids = set(gc.cone_gates(circ, front, "forward")[0])
    left_ops = [op for op in s.cut_ops if op.extent(axis)[1] < sl.lo]
    right_ops = [op for op in s.cut_ops if op.extent(axis)[1] >= sl.lo]

    left_dims = tuple(sl.hi if k == axis else w for k, w in enumerate(circ.dims))
    layers, gid = [], 0  # a gate's id is its position in layer order
    for layer in circ.layers:
        layers.append([g for gi, g in enumerate(layer, gid) if gi not in cone_ids])
        gid += len(layer)
    left_circ = gc.circuit(left_dims, layers)
    m_sites = set(s.M)
    t, index = full_width_state(left_circ, left_ops)
    for op in left_ops:
        if op.kind == "sandwich":
            t = oracle.apply_sandwich(t, op, [index[q] for q in op.qubits])
    cond = [index[q] for q in left_circ.sites() if q in m_sites or sl.lo <= q[axis] < sl.hi - d]
    t = oracle.project_zero(t, cond)
    omega = oracle.reduce(t, [index[q] for q in band])

    gates = [g for gid, g in enumerate(circ.gate_table[0]) if gid in cone_ids]
    W = column_reference(gates, band, front, right_ops)

    nb = len(band)
    rho = W @ omega @ W.conj().T
    lam, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    lam, vecs = np.clip(lam[::-1], 0.0, None), vecs[:, ::-1]
    eigvals = np.zeros(2**nb)  # the Gram's spectrum: that of rho, padded with zeros
    eigvals[: min(len(lam), 2**nb)] = lam[: 2**nb]
    kap = syn.kappa_from_spectrum(eigvals, T)
    w, v = np.linalg.eigh(omega)
    m = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    A = W @ m
    G = A.conj().T @ A
    kept = lam > syn.TAU
    kept[0] = True
    pi = vecs[:, kept] @ vecs[:, kept].conj().T
    g_lam, g_vecs = np.linalg.eigh(0.5 * (G + G.conj().T))
    g_kept = g_lam > syn.TAU
    g_kept[np.argmax(g_lam)] = True
    p1 = g_vecs[:, g_kept] @ g_vecs[:, g_kept].conj().T
    left_op = W.conj().T @ pi @ W
    right_input = m @ p1 @ m
    return float(np.real(np.trace(rho))), kap, eigvals, left_op, right_input, rho, pi


def assert_matches_reference(s, sl):
    data = syn.cut_data(s, sl, T)
    weight, kap, eigvals, left_op, right_input, rho, pi = dense_reference(s, sl)
    # cut_data carries the other windows' factors beside its spectrum and
    # operators; multiplied back in, they give the whole-region quantities
    a, b = data.omega_scale, data.front_scale
    assert data.weight == pytest.approx(weight, abs=1e-10)
    assert a * b * data.kappa == pytest.approx(kap, abs=1e-10)
    assert np.abs(a * b * data.eigvals - eigvals).max() < 1e-10
    assert np.abs(b * data.left_op - left_op).max() < 1e-10
    assert np.abs(a * data.right_input - right_input).max() < 1e-10
    assert np.abs(a * data.amat @ data.amat.conj().T - rho).max() < 1e-10
    factors = data.projector_factors()
    assert np.abs(factors @ factors.conj().T - pi).max() < 1e-10
    return data


def admissible_slices(s, width):
    """Slices of `width` along axis 0 at which s can be cut."""
    out = []
    for lo in range(s.gamma.dims[0] - width + 1):
        sl = gc.Slice(0, lo, lo + width)
        try:
            syn.cut_data(s, sl, T)
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
        assert_matches_reference(s, sl)


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
    data_i, data_j = syn.cut_data(s, gc.Slice(0, *i), T), syn.cut_data(s, gc.Slice(0, *j), T)
    left = syn.split_at_cuts(data_i).left
    middle = syn.middle_between_cuts(data_i, data_j).middle
    right = syn.split_at_cuts(data_j).right
    for child in (left, middle, right):
        slices = admissible_slices(child, 2 * depth)
        assert slices
        for sl in slices:
            factors = assert_matches_reference(child, sl).projector_factors()
            # an insertion applies them as an orthogonal projector
            assert np.abs(factors.conj().T @ factors - np.eye(factors.shape[1])).max() < 1e-10


def test_front_columns_with_a_band_qubit_no_gate_touches():
    # band (0,), (1,), (2,) on a [5] window: no gate or sandwich touches (0,),
    # only a sandwich touches (1,), and (2,) has gates; of the rest, (3,) has
    # gates and (4,) only a low-rank sandwich
    rng = np.random.default_rng(4)
    circ = weak((5,), 1)
    layers = [[g for g in layer if (0,) not in g.qubits and (1,) not in g.qubits] for layer in circ.layers]
    layers.append([gc.Gate(np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0], ((2,), (3,)))])
    circ = gc.circuit((5,), layers)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    f = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0][:, :1]
    ops = (
        syn.CutOp("sandwich", ((1,), (3,)), matrix=z @ z.conj().T),
        syn.CutOp("sandwich", ((4,),), factors=f, coeffs=np.array([0.7])),
    )
    sites = circ.sites()
    s = syn.Synthesis(circ, L=sites, M=(), N=(), declared_axes=(0,), cut_ops=ops)
    band, rest = sites[:3], sites[3:]
    assert not any(q in g.qubits for _, g in circ.gates() for q in band[:2] + rest[1:])
    want = column_reference([g for _, g in circ.gates()], band, rest, ops)
    got = syn._front_columns(s, band, cap=8)
    assert got.shape == want.shape == (4, 8)
    assert np.abs(got - want).max() < 1e-12
    assert not want[:, 4:].any()  # input 1 on (0,) meets <0| on its output
    assert np.abs(want[:, 2:4]).max() > 0.1  # input 1 on the sandwiched (1,) reaches the rows


def test_cut_data_rejects_a_slice_on_the_input_band():
    s = syn.synthesis_of_circuit(weak((12,), 1))
    right = syn.split_at_cuts(syn.cut_data(s, gc.Slice(0, 4, 6), T)).right
    with pytest.raises(syn.SplitError, match="post-selected"):
        syn.cut_data(right, gc.Slice(0, 0, 2), T)


def test_cut_data_at_the_middle_of_a_long_chain_fits_a_small_cap():
    circ = weak((128, 1, 1), 1, seed=128, strength=0.1)
    s = syn.synthesis_of_circuit(circ)
    data = syn.cut_data(s, gc.Slice(0, 64, 66), T, cap=8)
    # depth 1, pairs (2k, 2k+1): the cut state is |g00|^2 |0><0| on the front,
    # g the gate on (64, 65)
    (g,) = [g for g in circ.layers[0] if g.qubits[0][0] == 64]
    assert data.weight == pytest.approx(abs(g.matrix[0, 0]) ** 2, abs=1e-12)
    assert data.kappa == pytest.approx(data.weight, abs=1e-12)


def test_cut_data_far_from_the_input_band_of_a_right_child():
    circ = weak((96, 1, 1), 1, seed=96, strength=0.1)
    s = syn.synthesis_of_circuit(circ)
    parent = syn.cut_data(s, gc.Slice(0, 8, 10), T)
    sp = syn.split_at_cuts(parent)
    right = sp.right  # starts at site 8, input state on its site 1
    data = syn.cut_data(right, gc.Slice(0, 50, 52), T, cap=8)
    # the input band is post-selected on 0, and the pair (58, 59) of the
    # parent ends at the slice: both factor out of the cut state
    (g,) = [g for g in circ.layers[0] if g.qubits[0][0] == 58]
    expected = np.real(parent.right_input[0, 0]) * abs(g.matrix[0, 0]) ** 2
    assert data.weight == pytest.approx(expected, rel=1e-10)


def test_each_cut_is_partitioned_once_per_estimate(monkeypatch):
    # split_at_cuts and middle_between_cuts read the partition cut_data made,
    # so causal_split runs once per cut_data call and nowhere else
    calls = {"causal_split": 0, "cut_data": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(syn, "causal_split", counted("causal_split", syn.causal_split))
    cut = counted("cut_data", syn.cut_data)
    monkeypatch.setattr(syn, "cut_data", cut)
    monkeypatch.setattr(dnc, "cut_data", cut)
    s = syn.synthesis_of_circuit(weak((64, 1, 1), 1, seed=64, strength=0.1))
    dnc.a_full(s, None, 0.1, 3, config=dnc.DncConfig(profile="desk", cap=24))
    assert calls["cut_data"] > 0
    assert calls["causal_split"] == calls["cut_data"]


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


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_each_window_is_swept_once_per_estimate(monkeypatch):
    # cut_data looks every window up in the estimate's table before it sweeps
    # it; without the table (dnc.cut_data dropping memo) the same estimate
    # sweeps each repeated window again, and gives the same value and trace
    s = syn.synthesis_of_circuit(weak((128, 1, 1), 1, seed=128, strength=0.1))
    cfg = dnc.DncConfig(profile="desk", cap=24)
    calls = {"value": 0, "sweep": 0}
    monkeypatch.setattr(oracle, "synthesis_value_exact", _counted(calls, "value", oracle.synthesis_value_exact))
    monkeypatch.setattr(oracle, "synthesis_state", _counted(calls, "sweep", oracle.synthesis_state))
    cut_data = syn.cut_data
    runs = []
    for table in (True, False):
        if not table:
            monkeypatch.setattr(dnc, "cut_data", lambda *args, memo=None, **kw: cut_data(*args, **kw))
        calls.update(value=0, sweep=0)
        trace = dnc.TraceNode("run")
        est = dnc.a_full(s, None, 0.1, 3, config=cfg, trace=trace)
        runs.append((est, trace.to_dict(), calls["value"], calls["sweep"]))
    (est, tree, values, sweeps), (est_all, tree_all, values_all, sweeps_all) = runs
    assert est == est_all and tree == tree_all
    assert (values, sweeps) == (193, 224)
    assert (values_all, sweeps_all) == (329, 525)


def _is_call(key) -> bool:
    """Whether a table key is an `a_recursive` call's: its tag ends with the schedule."""
    tag = key[0]
    return isinstance(tag, tuple) and isinstance(tag[-1], dnc.ParameterSchedule)


class _Lookups(dict):
    """A table of work that counts its hits and misses, windows apart from calls
    by the tag of their (tag, content_key) keys."""

    def __init__(self):
        super().__init__()
        self.counts = {"window": [0, 0], "call": [0, 0]}

    def __contains__(self, key):
        found = super().__contains__(key)
        self.counts["call" if _is_call(key) else "window"][not found] += 1
        return found


def test_an_estimate_builds_no_gate_and_keeps_its_table_traffic(monkeypatch):
    # pieces share the root's gates: carving, keying and sweeping build none,
    # and the table sees the lookups it saw when pieces were rebuilt
    s = syn.synthesis_of_circuit(weak((128, 1, 1), 1, seed=128, strength=0.1))
    calls = {"gate": 0, "value": 0, "sweep": 0}
    monkeypatch.setattr(gc.Gate, "__post_init__", _counted(calls, "gate", gc.Gate.__post_init__))
    monkeypatch.setattr(oracle, "synthesis_value_exact", _counted(calls, "value", oracle.synthesis_value_exact))
    monkeypatch.setattr(oracle, "synthesis_state", _counted(calls, "sweep", oracle.synthesis_state))
    table = _Lookups()
    est = dnc.a_full(s, None, 0.1, 3, config=dnc.DncConfig(profile="desk", cap=24), memo=table)
    assert est.hex() == "0x1.9d4dbf430e3fbp-1"
    assert calls == {"gate": 0, "value": 193, "sweep": 224}
    assert table.counts == {"window": [301, 63], "call": [68, 129]}


def test_the_table_has_one_entry_layout():
    # calls and windows alike are stored by synthesis._tabled: the key is
    # (tag, content_key(view)) and the entry (out, view); a call's out is its
    # value and its trace node
    s = syn.synthesis_of_circuit(weak((128, 1, 1), 1, seed=128, strength=0.1))
    table = {}
    dnc.a_full(s, None, 0.1, 3, config=dnc.DncConfig(profile="desk", cap=24), memo=table)
    calls = 0
    for key, (out, view) in table.items():
        assert len(key) == 2 and isinstance(view, syn.Synthesis) and key[1] == syn.content_key(view)
        if _is_call(key):
            value, node = out
            assert isinstance(value, float) and node.kind == "a_recursive" and node.value == value
            calls += 1
    assert (calls, len(table) - calls) == (129, 63)  # the misses of the traffic test above


def test_sigma_terms_look_their_windows_up_in_the_estimate_table(monkeypatch):
    # with_insertions hands cut_data the estimate's table; without it (the
    # memo dropped) the same Delta = 3 estimate sweeps 21 windows more, with
    # the same value and trace
    s = syn.synthesis_of_circuit(weak((48, 1, 1), 1, seed=48, strength=0.1))
    cfg = dnc.DncConfig(profile="desk", cap=24, overrides={"Delta": 3})
    calls = {"sweep": 0}
    monkeypatch.setattr(oracle, "synthesis_state", _counted(calls, "sweep", oracle.synthesis_state))
    with_insertions = syn.PhiDescriptor.with_insertions
    runs = []
    for table in (True, False):
        if not table:
            monkeypatch.setattr(syn.PhiDescriptor, "with_insertions",
                                lambda self, *args, memo=None, **kw: with_insertions(self, *args, **kw))
        calls["sweep"] = 0
        trace = dnc.TraceNode("run")
        est = dnc.a_full(s, None, 0.1, 3, config=cfg, trace=trace)
        runs.append((est, trace.to_dict(), calls["sweep"]))
    (est, tree, sweeps), (est_all, tree_all, sweeps_all) = runs
    assert est.hex() == est_all.hex() == "0x1.d8b3638033492p-1" and tree == tree_all
    assert (sweeps, sweeps_all) == (97, 118)


class _AskedTable(dict):
    """A table of work that records the keys looked up in it, and those stored."""

    def __init__(self):
        super().__init__()
        self.asked, self.stored = [], set()

    def __contains__(self, key):
        self.asked.append(key)
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self.stored.add(key)
        super().__setitem__(key, value)


def _with_matrices(s, matrix):
    """s with each gate g's matrix replaced by matrix(g)."""
    layers = [[gc.Gate(matrix(g), g.qubits, g.name) for g in layer] for layer in s.gamma.layers]
    return syn.Synthesis(gc.circuit(s.gamma.dims, layers), s.L, s.M, s.N, s.declared_axes, s.cut_ops)


@pytest.mark.parametrize("change", ["annotation bytes", "gate matrix object", "gate matrix"])
def test_the_window_table_keys_on_annotations_and_gate_matrices(change):
    # windows with the same sites, roles and gate qubits are different
    # windows when an annotation's bytes or a gate's matrix differ
    s = syn.synthesis_of_circuit(weak((16,), 1))
    right = syn.split_at_cuts(syn.cut_data(s, gc.Slice(0, 2, 4), T)).right  # input state on (1,)
    if change == "annotation bytes":
        (op,) = right.cut_ops
        other = syn.Synthesis(right.gamma, right.L, right.M, right.N, right.declared_axes,
                              (dataclasses.replace(op, factors=np.sqrt(0.5) * op.factors),))
    elif change == "gate matrix object":
        other = _with_matrices(right, lambda g: g.matrix.copy())
    else:
        other = _with_matrices(right, lambda g: g.matrix[::-1])  # rows swapped: still unitary
    sl = gc.Slice(0, 4, 6)
    memo = _AskedTable()
    first = syn.cut_data(right, sl, T, memo=memo)
    memo.asked.clear()
    memo.stored.clear()
    got = syn.cut_data(other, sl, T, memo=memo)
    want = syn.cut_data(other, sl, T)
    # a window of `other` finds an entry only where it holds nothing that changed
    hits = [memo[key][1] for key in memo.asked if dict.__contains__(memo, key) and key not in memo.stored]
    misses = len(memo.asked) - len(hits)
    if change == "annotation bytes":
        assert all(not view.cut_ops for view in hits) and misses == 1
    else:
        assert all(not list(view.gamma.gates()) for view in hits) and misses >= 1
    for name in ("omega_scale", "front_scale", "eigvals", "left_op", "right_input"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    if change != "gate matrix object":
        assert not (got.omega_scale == first.omega_scale and np.array_equal(got.left_op, first.left_op))


def test_tabled_band_matrices_are_read_only():
    s = syn.synthesis_of_circuit(weak((16,), 1))
    memo = {}
    syn.cut_data(s, gc.Slice(0, 4, 6), T, memo=memo)
    arrays = [value for value, _ in memo.values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 2  # omega and W^dagger W of the band windows
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_cut_data_is_immutable():
    s = syn.synthesis_of_circuit(weak((16,), 1))
    data = syn.cut_data(s, gc.Slice(0, 4, 6), T)
    assert data.front_sites == s.root_sites(axis=0, lo=6)  # a cached property still fills
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.weight = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.left_ids = ()
