"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import math
import time

import numpy as np
import pytest

from dncsim import blockenc, dnc, errmodel, geomcircuit as gc, oracle, synthesis as syn
from dncsim.harness import generate_circuit


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def min_width_cuts(circ, require_front=False):
    w = 2 * circ.depth
    length = circ.dims[0]
    cuts = []
    for lo in range(0, length - w + 1):
        if require_front and lo + w >= length:
            continue
        cuts.append(gc.Slice(0, lo, lo + w))
    return cuts


def encoding_corpus():
    """>= 50 seeded circuits, <= 10 data qubits, d <= 2."""
    specs = []
    for seed in range(18):
        specs.append({"kind": "brickwork", "dims": [4 + seed % 3], "depth": 1, "seed": seed, "gates": "haar"})
    for seed in range(12):
        specs.append(
            {"kind": "brickwork", "dims": [4 + seed % 3], "depth": 1, "seed": 100 + seed,
             "gates": "weak", "strength": 0.3}
        )
    for seed in range(10):
        specs.append({"kind": "brickwork", "dims": [5 + seed % 2], "depth": 2, "seed": 200 + seed, "gates": "haar"})
    for seed in range(6):
        specs.append({"kind": "product", "dims": [6], "depth": 1, "seed": 300 + seed, "strength": 0.4})
    for seed in range(4):
        specs.append({"kind": "brickwork", "dims": [4, 2], "depth": 1, "seed": 400 + seed, "gates": "haar"})
    specs.append({"kind": "identity", "dims": [6], "depth": 1})
    specs.append({"kind": "cluster", "dims": [6], "depth": 2})
    return [(spec, generate_circuit(spec)) for spec in specs]


def test_criterion_1_block_encoding_identities():
    t0 = time.time()
    corpus = encoding_corpus()
    assert len(corpus) >= 50
    worst_sigma = worst_rho4 = worst_power = 0.0
    n_checks = 0
    for _, circ in corpus:
        for sl in min_width_cuts(circ):
            regions = gc.cut_regions(circ, sl)
            enc = blockenc.build_sigma_encoding(circ, regions)
            block = blockenc.encoding_block(enc)
            sigma = oracle.reduced_state(circ, regions)
            worst_sigma = max(worst_sigma, float(np.linalg.norm(sigma.matrix - block, 2)))
            # Lemma-4 form: post-selecting the middle on the sigma block
            dop = oracle.DensityOperator(block, enc.data)
            rho_blk = oracle.postselect_zero(dop, [q + (0, 0) for q in regions.middle]).matrix
            rho = oracle.postselect_zero(sigma, regions.middle).matrix
            worst_rho4 = max(worst_rho4, float(np.linalg.norm(rho_blk - rho, 2)))
            n_checks += 1
    # power encodings k in {1,2,3}, both sides, on instances whose enlarged
    # register systems fit the dense cap
    power_cases = [
        ({"kind": "brickwork", "dims": [4], "depth": 1, "seed": 8, "gates": "haar"}, gc.Slice(0, 1, 3), (1, 2, 3)),
        ({"kind": "brickwork", "dims": [4], "depth": 1, "seed": 9, "gates": "weak"}, gc.Slice(0, 1, 3), (1, 2, 3)),
        ({"kind": "brickwork", "dims": [5], "depth": 1, "seed": 10, "gates": "haar"}, gc.Slice(0, 2, 4), (1, 2)),
        ({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 11, "gates": "haar"}, gc.Slice(0, 2, 4), (1, 2)),
        ({"kind": "brickwork", "dims": [5], "depth": 2, "seed": 12, "gates": "haar"}, gc.Slice(0, 0, 4), (1, 2)),
        ({"kind": "product", "dims": [4], "depth": 1, "seed": 13, "strength": 0.4}, gc.Slice(0, 1, 3), (1, 2, 3)),
    ]
    for spec, sl, ks in power_cases:
        circ = generate_circuit(spec)
        regions = gc.cut_regions(circ, sl)
        for k in ks:
            for side in ("F", "B"):
                enc = blockenc.build_rho_power_encoding(circ, regions, k, side=side)
                dev = blockenc.verify_encoding(enc, cap=24)
                worst_power = max(worst_power, dev)
                n_checks += 1
    elapsed = time.time() - t0
    ok = worst_sigma <= 1e-10 and worst_rho4 <= 1e-10 and worst_power <= 1e-9 and elapsed <= 120
    report(
        "criterion 1 block-encoding identities",
        ok,
        f"{len(corpus)} circuits, {n_checks} checks, sigma {worst_sigma:.1e}, "
        f"postselect {worst_rho4:.1e}, powers {worst_power:.1e}, {elapsed:.0f}s",
    )


def test_criterion_2_depth_and_locality():
    corpus = encoding_corpus()
    checked = 0
    for _, circ in corpus:
        for sl in min_width_cuts(circ):
            regions = gc.cut_regions(circ, sl)
            enc = blockenc.build_sigma_encoding(circ, regions)
            assert enc.circuit.depth <= 3 * circ.depth
            assert all(gc.linf(*g.qubits) <= 1 for _, g in enc.circuit.gates() if g.arity == 2)
            checked += 1
        regions = gc.cut_regions(circ, min_width_cuts(circ)[0])
        for k in (1, 2, 3):
            enc = blockenc.build_rho_power_encoding(circ, regions, k)
            assert enc.circuit.depth <= (2 * k + 1) * circ.depth
            assert all(gc.linf(*g.qubits) <= 1 for _, g in enc.circuit.gates() if g.arity == 2)
            checked += 1
    report("criterion 2 depth/locality accounting", True, f"{checked} nearest-neighbor encodings")


def independent_value(s) -> float:
    """Full-unitary evaluation of a synthesis (no shared kernels with oracle)."""
    U = oracle.circuit_unitary(s.gamma, cap=12)
    n = s.gamma.n_qubits
    psi = U[:, 0].reshape([2] * n)
    order = {q: i for i, q in enumerate(s.gamma.sites())}
    for q in s.M:
        idx = [slice(None)] * n
        idx[order[q]] = 1
        psi[tuple(idx)] = 0.0
    for q in s.N:
        idx = [slice(None)] * n
        idx[order[q]] = 1
        psi[tuple(idx)] = 0.0
    return float(np.sum(np.abs(psi) ** 2))


def test_criterion_3_synthesis_evaluation():
    rng = np.random.default_rng(77)
    worst = 0.0
    cases = 0
    for seed in range(30):
        n = 4 + seed % 7
        d = 1 + seed % 2
        circ = generate_circuit({"kind": "brickwork", "dims": [n], "depth": d, "seed": 500 + seed, "gates": "haar"})
        sites = list(circ.sites())
        rng.shuffle(sites)
        nl = seed % 3
        nm = (seed // 3) % 3
        L, M, N = sites[:nl], sites[nl : nl + nm], sites[nl + nm :]
        s = syn.Synthesis(
            gamma=circ, L=tuple(L), M=tuple(M), N=tuple(N), declared_axes=(0,)
        )
        v1 = oracle.synthesis_value_exact(s)
        v2 = independent_value(s)
        worst = max(worst, abs(v1 - v2))
        cases += 1
    report(
        "criterion 3 synthesis evaluation",
        cases >= 30 and worst <= 1e-10,
        f"{cases} cases, worst deviation {worst:.1e}",
    )


def test_criterion_4_driver_edge_cases():
    circ = generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 3, "gates": "haar"})
    s = syn.synthesis_of_circuit(circ)
    ok_half = dnc.a_full(s, None, 0.6, 3) == 0.5
    tiny = 0.5 * circ.n_qubits ** -(math.log2(circ.n_qubits) ** 2)
    ok_brute = dnc.a_full(s, None, tiny, 3) == pytest.approx(
        oracle.synthesis_value_exact(s), abs=1e-14
    )
    calls = []
    sentinel = object()

    def spy(synth, delta):
        calls.append((synth is s, delta))
        return 0.25

    got = dnc.a_full(s, spy, 0.05, 2)
    ok_base = got == 0.25 and calls == [(True, 0.05)]
    report(
        "criterion 4 driver edge cases",
        ok_half and ok_brute and ok_base,
        f"half={ok_half} brute={ok_brute} base-forwarding={ok_base}",
    )


def estimation_corpus():
    d2 = {"z_width": 8, "w0": 13, "Delta": 1}
    return [
        # (spec, overrides)
        ({"kind": "identity", "dims": [16, 1, 1], "depth": 1}, {}),
        ({"kind": "identity", "dims": [12, 1, 1], "depth": 1}, {}),
        ({"kind": "identity", "dims": [8, 2, 1], "depth": 1}, {"Delta": 1}),
        ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.15}, {}),
        ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 7, "gates": "weak", "strength": 0.12}, {}),
        ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 9, "gates": "weak", "strength": 0.15}, {}),
        ({"kind": "brickwork", "dims": [14, 1, 1], "depth": 1, "seed": 11, "gates": "weak", "strength": 0.15}, {}),
        ({"kind": "brickwork", "dims": [14, 1, 1], "depth": 1, "seed": 13, "gates": "weak", "strength": 0.1}, {}),
        ({"kind": "brickwork", "dims": [12, 1, 1], "depth": 1, "seed": 15, "gates": "weak", "strength": 0.2}, {}),
        ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 2, "seed": 17, "gates": "weak", "strength": 0.08}, d2),
        ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 2, "seed": 19, "gates": "weak", "strength": 0.1}, d2),
        ({"kind": "product", "dims": [16, 1, 1], "depth": 1, "seed": 3, "strength": 0.2}, {}),
        ({"kind": "product", "dims": [14, 1, 1], "depth": 1, "seed": 21, "strength": 0.25}, {}),
        ({"kind": "brickwork", "dims": [8, 2, 1], "depth": 1, "seed": 11, "gates": "weak", "strength": 0.1}, {"Delta": 1}),
        ({"kind": "brickwork", "dims": [7, 2, 1], "depth": 1, "seed": 23, "gates": "weak", "strength": 0.12}, {"Delta": 1}),
        ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 2, "gates": "haar"}, {}),
        ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 4, "gates": "haar"}, {}),
        ({"kind": "brickwork", "dims": [14, 1, 1], "depth": 2, "seed": 6, "gates": "haar"}, d2),
        ({"kind": "brickwork", "dims": [8, 2, 1], "depth": 1, "seed": 3, "gates": "haar"}, {"Delta": 1}),
        ({"kind": "brickwork", "dims": [12, 1, 1], "depth": 1, "seed": 8, "gates": "haar"}, {}),
        ({"kind": "x_layer", "dims": [16, 1, 1], "depth": 1}, {}),
        ({"kind": "cluster", "dims": [16, 1, 1], "depth": 2}, d2),
    ]


def test_criterion_5_end_to_end_estimation():
    t0 = time.time()
    corpus = estimation_corpus()
    assert len(corpus) >= 20
    worst = 0.0
    classification_ok = True
    runs = 0
    for spec, overrides in corpus:
        circ = generate_circuit(spec)
        assert 12 <= circ.n_qubits <= 16 or circ.dims[1] > 1  # 2D entries are 14-16q
        s = syn.synthesis_of_circuit(circ)
        target = oracle.synthesis_value_exact(s)
        for delta in (0.1, 0.05):
            cfg = dnc.DncConfig(profile="desk", overrides=dict(overrides), cap=24)
            est = dnc.a_full(s, None, delta, 3, config=cfg)
            worst = max(worst, abs(est - target))
            assert abs(est - target) <= delta, (spec, delta, est, target)
            runs += 1
            # heavy-slice classification vs direct oracle thresholding
            sched = dnc.schedule(circ.n_qubits, circ.depth, 3, delta, "desk", **overrides)
            slices = gc.enumerate_slices(circ, 0, sched.slice_width, sched.max_gap)
            heavy, _ = dnc.heavy_slices(
                s, slices, sched,
                lambda wsyn, err: dnc.a_full(dnc.dimension_reduce(wsyn, 0), None, err, 2,
                                             config=dnc.DncConfig(cap=24)),
            )
            lo, hi = sched.heavy_thresholds()
            direct = [sl for sl in slices if syn.slice_weight(s, sl) >= 0.5 * (lo + hi)]
            classification_ok = classification_ok and heavy == direct
    elapsed = time.time() - t0
    ok = worst <= 0.05 and classification_ok and elapsed <= 600
    report(
        "criterion 5 end-to-end estimation",
        ok,
        f"{runs} runs over {len(corpus)} circuits, worst |err| {worst:.2e}, "
        f"classification match {classification_ok}, {elapsed:.0f}s",
    )


def test_criterion_6_combination_formula_conformance():
    # hand-computed values for unit inputs
    ok = dnc.inclusion_exclusion_combine([1.0], {}, {}, [1.0], 1) == pytest.approx(1.0)
    ok &= dnc.inclusion_exclusion_combine(
        [1.0, 1.0], {(1, 2): 1.0}, {}, [1.0, 1.0], 2
    ) == pytest.approx(1.0)
    single = [1.0] * 3
    double = {(i, j): 1.0 for i in range(1, 4) for j in range(i + 1, 4)}
    multi = {(1, 3, (2,)): 1.0}
    ok &= dnc.inclusion_exclusion_combine(single, double, multi, [1.0] * 3, 3) == pytest.approx(1.0)
    # sign pattern (-1)^(|sigma|+1): |sigma| = 1 gives +
    ok &= dnc.inclusion_exclusion_combine(
        single, double, {(1, 3, (2,)): 0.5}, [1.0] * 3, 3
    ) == pytest.approx(3.0 - 3.0 + 0.5)
    # hand value with kappa coefficients
    ok &= dnc.inclusion_exclusion_combine(
        [2.0], {}, {}, [0.9], 1
    ) == pytest.approx(2.0 / 0.9)

    # branch counts at every internal node
    counts_ok = True
    for dims, Delta in (((16, 1, 1), 2), ((20, 1, 1), 3), ((12, 1, 1), 1)):
        circ = generate_circuit({"kind": "identity", "dims": list(dims), "depth": 1})
        s = syn.synthesis_of_circuit(circ)
        trace = dnc.TraceNode("run")
        cfg = dnc.DncConfig(profile="desk", overrides={"Delta": Delta}, cap=24)
        dnc.a_full(s, None, 0.1, 3, config=cfg, trace=trace)
        internal = [
            n for n in trace.walk() if n.kind == "a_recursive" and not n.meta.get("stopped")
        ]
        counts_ok &= bool(internal)
        for node in internal:
            sigma_expect = sum(
                2 ** (j - i - 1) - 1
                for i in range(1, Delta + 1)
                for j in range(i + 2, Delta + 1)
            )
            counts_ok &= node.count("left") + node.count("right") == 2 * Delta
            counts_ok &= node.count("middle") == Delta * (Delta - 1) // 2
            counts_ok &= node.count("sigma_term") == sigma_expect
            counts_ok &= node.count("kappa") == Delta
    report("criterion 6 combination-formula conformance", bool(ok) and counts_ok)


def test_criterion_7_error_model_numerics():
    ok = abs(errmodel.e1(0.25, 1) - 0.125) <= 1e-12
    ok &= abs(errmodel.e2(1.0, 16) - 2.0**-80) <= 1e-12 * 2.0**-80
    ok &= abs(errmodel.e3(0.08, 3) - 0.01) <= 1e-12
    m1 = errmodel.ErrorModel(n=16, d=1, D=1, h=1, Delta=2, K=2, T=2, eta=1)
    ok &= abs(errmodel.e5(0.25, m1) - 0.125 * 2.0**-80 / 4) <= 1e-12 * 2.0**-80

    grid_ok = all(
        errmodel.e1(float(dl), h) >= errmodel.e1_lower_bound(float(dl), h) - 1e-15
        for h in (1, 3, 7)
        for dl in np.geomspace(1e-6, 0.99, 100)
    )
    rng = np.random.default_rng(1)
    chain_ok = True
    for _ in range(1000):
        m = errmodel.ErrorModel(
            n=16, d=1, D=3,
            h=float(rng.uniform(1, 20)),
            Delta=int(rng.integers(1, 8)),
            K=int(rng.integers(1, 12)),
            T=int(rng.integers(1, 6)),
            eta=2,
            e_of_n=float(rng.uniform(0, 1)),
            g_of_n=float(rng.uniform(0, 0.5)),
        )
        b1, b2, b3 = errmodel.script_bounds(m, float(rng.uniform(0, 0.2)))
        chain_ok &= b3 >= b2 >= b1

    n = 2**10
    ln = math.log2(n)
    mp = errmodel.ErrorModel(
        n=n, d=1, D=3, h=ln**7, Delta=math.ceil(ln), K=math.ceil(ln**3), T=math.ceil(ln**3),
        eta=math.ceil(ln / (3 * math.log2(4 / 3))),
        e_of_n=errmodel.default_e_of_n(0.1, n), g_of_n=0.0,
    )
    eps = 0.1 * 2.0 ** (-10 * ln * math.log2(ln))
    bound = errmodel.predicted_error(mp, eps)
    paper_ok = bound <= 0.1
    report(
        "criterion 7 error-model numerics",
        bool(ok) and grid_ok and chain_ok and paper_ok,
        f"hand values {bool(ok)}, lower bound grid {grid_ok}, chain grid {chain_ok}, "
        f"paper-profile bound {bound:.2e} <= 0.1 {paper_ok}",
    )


def test_criterion_8_runtime_predictor_conformance():
    configs = [
        ((16, 1, 1), 1, {"Delta": 2}),
        ((20, 1, 1), 1, {"Delta": 3}),
        ((12, 1, 1), 1, {"Delta": 1}),
        ((24, 1, 1), 1, {"Delta": 2}),
        ((8, 2, 1), 1, {"Delta": 1}),
        ((24, 1, 1), 1, {"Delta": 1}),
    ]
    delta = 0.1
    all_ok = True
    details = []
    for dims, d, ov in configs:
        circ = generate_circuit({"kind": "identity", "dims": list(dims), "depth": d})
        s = syn.synthesis_of_circuit(circ)
        trace = dnc.TraceNode("run")
        cfg = dnc.DncConfig(profile="desk", overrides=dict(ov), cap=24)
        dnc.a_full(s, None, delta, 3, config=cfg, trace=trace)
        sched = dnc.schedule(circ.n_qubits, d, 3, delta, "desk", **ov)
        pred = dnc.expected_node_counts(dims, d, 3, sched, delta)
        got = trace.counts_by_kind()
        got.pop("run")
        all_ok &= pred == got
        details.append(f"{dims}/D{ov.get('Delta')}:{'=' if pred == got else '!='}")
    report(
        "criterion 8 runtime-predictor conformance",
        all_ok and len(configs) >= 5,
        f"{len(configs)} configs, " + " ".join(details),
    )


def test_criterion_9_width_contraction_and_termination():
    corpus = [
        ({"kind": "identity", "dims": [24, 1, 1], "depth": 1}, {"Delta": 2}),
        ({"kind": "identity", "dims": [20, 1, 1], "depth": 1}, {"Delta": 3}),
        ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 5, "gates": "weak",
          "strength": 0.15}, {"Delta": 2}),
        ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 2, "seed": 17, "gates": "weak",
          "strength": 0.08}, {"z_width": 8, "w0": 13, "Delta": 1}),
    ]
    nodes_checked = 0
    for spec, ov in corpus:
        circ = generate_circuit(spec)
        s = syn.synthesis_of_circuit(circ)
        trace = dnc.TraceNode("run")
        cfg = dnc.DncConfig(profile="desk", overrides=dict(ov), cap=24)
        dnc.a_full(s, None, 0.1, 3, config=cfg, trace=trace)
        sched = dnc.schedule(circ.n_qubits, circ.depth, 3, 0.1, "desk", **ov)
        for node in trace.walk():
            if node.kind in ("left", "right"):
                assert (
                    node.meta["child_width"] <= 0.75 * node.meta["parent_width"] + sched.slice_width
                )
                nodes_checked += 1
            if node.kind == "a_recursive" and not node.meta.get("stopped"):
                assert node.meta["width"] >= sched.w0
                assert node.meta["eta"] >= 1
    report(
        "criterion 9 width contraction and termination",
        nodes_checked > 0,
        f"{nodes_checked} child nodes within the 3/4 bound; all runs terminated",
    )
