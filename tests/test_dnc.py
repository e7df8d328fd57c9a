import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dncsim import dnc, errmodel, geomcircuit as gc, oracle, synthesis as syn
from dncsim.harness import ExperimentConfig, generate_circuit, run_experiment

# perfbench's dense-free reference values, loaded by path (perfbench is not a package)
_spec = importlib.util.spec_from_file_location(
    "perfbench_references", Path(__file__).resolve().parents[1] / "perfbench" / "references.py"
)
references = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(references)


def make_synth(spec):
    circ = generate_circuit(spec)
    return syn.synthesis_of_circuit(circ), circ


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_paper_formulas():
    sched = dnc.schedule(16, 1, 4, 0.1, profile="paper")
    assert sched.eta == math.ceil(4 / (4 * math.log2(4 / 3)))  # = 3
    assert sched.eta == 3
    assert sched.Delta == 4
    assert sched.h == math.ceil(4.0**7)
    assert sched.K == sched.T == math.ceil(4.0**3)
    assert sched.slice_width == 10 and sched.max_gap == 10
    assert sched.w0 == 20 * 1 * (sched.Delta + sched.h + 2)
    assert sched.z_width == 10 * 1 * (sched.Delta + sched.h + 2)
    assert sched.eps == pytest.approx(0.1 * 2.0 ** (-10 * 4 * 2))


def test_schedule_w0_formula_hand_value():
    # d = 1, Delta = 2, h = 1: w0 = 20 (2 + 1 + 2) = 100
    sched = dnc.schedule(16, 1, 3, 0.1, profile="desk", Delta=2, h=1, w0=20 * (2 + 1 + 2))
    assert sched.w0 == 100


def test_schedule_desk_minima_enforced():
    with pytest.raises(dnc.ScheduleError):
        dnc.schedule(16, 1, 3, 0.1, profile="desk", slice_width=1)
    with pytest.raises(dnc.ScheduleError):
        dnc.schedule(16, 1, 3, 0.1, profile="desk", Delta=0)
    with pytest.raises(dnc.ScheduleError):
        dnc.schedule(16, 1, 3, 0.1, profile="desk", K=0)
    with pytest.raises(dnc.ScheduleError):
        dnc.schedule(1, 1, 3, 0.1)


def test_desk_eta_is_two_up_to_24_qubits():
    d2 = {"z_width": 8, "w0": 13, "Delta": 1}
    for n in range(2, 25):
        for d, ov in ((1, {}), (2, {}), (1, {"Delta": 1}), (2, d2), (1, d2)):
            assert dnc.schedule(n, d, 3, 0.1, profile="desk", **ov).eta == 2, (n, d, ov)


def test_desk_eta_grows_with_n():
    # d = 1: w0 = 13, so eta = ceil(log2(n / 13))
    assert dnc.schedule(48, 1, 3, 0.1, profile="desk").eta == 2
    assert dnc.schedule(64, 1, 3, 0.1, profile="desk").eta == 3
    assert dnc.schedule(128, 1, 3, 0.1, profile="desk").eta == 4
    # the final w0 counts, overridden or derived from an overridden z_width
    assert dnc.schedule(128, 1, 3, 0.1, profile="desk", w0=64).eta == 2
    assert dnc.schedule(128, 1, 3, 0.1, profile="desk", z_width=4).eta == 5


def test_explicit_eta_override_wins():
    assert dnc.schedule(128, 1, 3, 0.1, profile="desk", eta=1).eta == 1
    assert dnc.schedule(16, 1, 3, 0.1, profile="desk", eta=6).eta == 6
    assert dnc.schedule(128, 1, 3, 0.1, profile="paper", eta=2).eta == 2


def test_paper_eta_is_unchanged():
    for n in (16, 64, 128, 1024):
        for D in (3, 4):
            sched = dnc.schedule(n, 1, D, 0.1, profile="paper")
            assert sched.eta == math.ceil(math.log2(n) / (D * math.log2(4 / 3)))


def test_desk_schedule_rejects_a_nonpositive_w0():
    with pytest.raises(dnc.ScheduleError):
        dnc.schedule(16, 1, 3, 0.1, profile="desk", w0=0)


def test_schedule_rejects_an_unknown_override():
    with pytest.raises(dnc.ScheduleError, match="'Detla'"):
        dnc.schedule(16, 1, 3, 0.1, profile="desk", Detla=3)
    with pytest.raises(dnc.ScheduleError, match="'foo'"):
        dnc.schedule(16, 1, 3, 0.1, profile="paper", foo=1)
    # the overrides of an experiment config reach the same check
    config = ExperimentConfig.from_json({
        "circuits": [{"kind": "identity", "dims": [8, 1, 1], "depth": 1}],
        "deltas": [0.1],
        "overrides": {"Delta": 1, "Detla": 3},
    })
    with pytest.raises(dnc.ScheduleError, match="'Detla'"):
        run_experiment(config)


def test_dnc_config_rejects_an_unknown_override_when_constructed():
    # at delta = 0.6 a_full returns 0.5 before any schedule is built, so the
    # check that schedule() makes never ran for this config
    with pytest.raises(dnc.ScheduleError, match="'bogus'"):
        dnc.DncConfig(overrides={"bogus": 1})
    s = syn.synthesis_of_circuit(generate_circuit({"kind": "identity", "dims": [8, 1, 1], "depth": 1}))
    assert dnc.a_full(s, None, 0.6, 3, config=dnc.DncConfig(overrides={"Delta": 1})) == 0.5


def test_schedule_eps_never_exceeds_delta():
    for n in (4, 8, 16, 64):
        for delta in (0.5, 0.1, 1e-3):
            sched = dnc.schedule(n, 1, 3, delta, profile="desk")
            assert sched.eps <= sched.delta


# ---------------------------------------------------------------------------
# driver edge cases
# ---------------------------------------------------------------------------


def test_a_full_returns_half_for_large_delta():
    s, _ = make_synth({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 3, "gates": "haar"})
    assert dnc.a_full(s, None, 0.7, 3) == 0.5
    assert dnc.a_full(s, None, 0.5, 3) == 0.5


def test_a_full_brute_force_for_tiny_delta():
    s, circ = make_synth({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 3, "gates": "haar"})
    tiny = 0.5 / circ.n_qubits ** (math.log2(circ.n_qubits) ** 2)
    assert dnc.a_full(s, None, tiny, 3) == pytest.approx(
        oracle.synthesis_value_exact(s), abs=1e-14
    )


@pytest.mark.parametrize("dims, D", [([16], 3), ([16, 2], 4)])
def test_a_full_rejects_more_dimensions_than_the_synthesis_declares(monkeypatch, dims, D):
    # each level of the recursion absorbs one declared axis, so D may exceed
    # their number by one at most; the request fails before any leaf is evaluated
    s, _ = make_synth({"kind": "brickwork", "dims": dims, "depth": 1, "seed": 3, "gates": "weak", "strength": 0.1})
    calls = []
    value_exact = oracle.synthesis_value_exact
    monkeypatch.setattr(oracle, "synthesis_value_exact", lambda *a, **kw: calls.append(1) or value_exact(*a, **kw))
    with pytest.raises(dnc.ScheduleError, match=f"D = {D} needs at least {D - 1} declared dimensions"):
        dnc.a_full(s, None, 0.1, D, config=dnc.DncConfig(profile="desk", cap=24))
    assert calls == []


def test_a_full_d2_delegates_to_base_verbatim():
    s, _ = make_synth({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 3, "gates": "haar"})
    calls = []

    def spy_base(synth, delta):
        calls.append((synth, delta))
        return 0.123456

    assert dnc.a_full(s, spy_base, 0.05, 2) == 0.123456
    assert calls == [(s, 0.05)]


def test_a_full_d2_default_base_honours_the_cap():
    # the cap counts what the sweep holds: a depth-1 chain closes each pair
    # right after its gate, so its 10 qubits pass at cap 8
    circ = generate_circuit({"kind": "brickwork", "dims": [10, 1], "depth": 1, "seed": 3, "gates": "weak"})
    s = syn.synthesis_of_circuit(circ)
    exact = oracle.synthesis_value_exact(s)
    assert abs(exact - references.probability_sweep(circ)) <= 1e-12
    assert dnc.a_full(s, None, 0.1, 2, config=dnc.DncConfig(cap=8)) == exact
    # a depth-2 ladder's sweep holds 4
    ladder = generate_circuit({"kind": "brickwork", "dims": [10, 2], "depth": 2, "seed": 3, "gates": "weak"})
    s = syn.synthesis_of_circuit(ladder)
    with pytest.raises(oracle.OracleCapacityError, match="4 qubits > cap 3"):
        dnc.a_full(s, None, 0.1, 2, config=dnc.DncConfig(cap=3))
    exact = oracle.synthesis_value_exact(s)
    assert abs(exact - references.probability_sweep(ladder)) <= 1e-12
    assert dnc.a_full(s, None, 0.1, 2, config=dnc.DncConfig(cap=4)) == exact


@pytest.mark.parametrize("dims", [[32, 1, 1], [128, 1, 1], [48, 2, 1]])
def test_a_full_weak_depth_2_chains_fit_the_desk_cap(dims):
    # leaves of 26-52 qubits whose sweeps hold at most 12; the count of every
    # qubit refused them at cap 24
    circ = generate_circuit(
        {"kind": "brickwork", "dims": dims, "depth": 2, "seed": dims[0], "gates": "weak", "strength": 0.1}
    )
    cfg = dnc.DncConfig(profile="desk", cap=24)
    est = dnc.a_full(syn.synthesis_of_circuit(circ), None, 0.1, 3, config=cfg)
    assert abs(est - references.probability_sweep(circ)) <= 0.1


@pytest.mark.parametrize("depth, overrides", [(1, {}), (2, {"z_width": 8, "w0": 13, "Delta": 1})])
def test_a_full_on_1024_qubit_chains_keeps_kappa_in_range(depth, overrides):
    # the cut annotations leave out the other windows' factors, so kappa no
    # longer carries the probability of the whole left region; with them it
    # fell to 5.3e-48 (d1) and 1.4e-76 (d2) and the combine raised ScheduleError
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [1024, 1, 1], "depth": depth, "seed": 1024, "gates": "weak", "strength": 0.1}
    )
    cfg = dnc.DncConfig(profile="desk", cap=24, overrides=overrides)
    trace = dnc.TraceNode("run")
    est = dnc.a_full(syn.synthesis_of_circuit(circ), None, 0.1, 3, config=cfg, trace=trace)
    assert abs(est - references.probability_sweep(circ)) <= 0.1
    assert min(n.value for n in trace.walk() if n.kind == "kappa") > 0.5


class _NoHits(dict):
    """A table of recursive calls that never finds one: every call is solved."""

    def __contains__(self, key):
        return False


def test_a_full_solves_each_distinct_recursive_call_once(monkeypatch):
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [128, 1, 1], "depth": 1, "seed": 128, "gates": "weak", "strength": 0.1}
    )
    s = syn.synthesis_of_circuit(circ)
    cfg = dnc.DncConfig(profile="desk", cap=24)
    cuts = []
    cut_data = syn.cut_data
    monkeypatch.setattr(dnc, "cut_data", lambda *args, **kw: cuts.append(1) or cut_data(*args, **kw))
    runs = []
    for memo in (None, _NoHits()):
        cuts.clear()
        trace = dnc.TraceNode("run")
        est = dnc.a_full(s, None, 0.1, 3, config=cfg, trace=trace, memo=memo)
        calls = [n for n in trace.walk() if n.kind == "a_recursive"]
        runs.append((est, trace.to_dict(), len(cuts), len(calls), len({id(n) for n in calls})))
    (est, tree, cuts_once, nodes, distinct), (est_all, tree_all, cuts_all, nodes_all, _) = runs
    # the table changes the work, not the value or the trace
    assert est == est_all and tree == tree_all
    assert nodes == nodes_all == 341
    assert distinct == 129
    assert (cuts_once, cuts_all) == (98, 170)
    exact = float(np.prod([abs(g.matrix[0, 0]) ** 2 for g in circ.layers[0]]))
    assert abs(est - exact) <= 0.1


@pytest.mark.parametrize(
    "depth, seed, strength, overrides", [(2, 64, 0.1, {}), (1, 5, 0.3, {"slice_width": 2, "max_gap": 1})]
)
def test_the_table_of_calls_keys_on_the_annotations(depth, seed, strength, overrides):
    # pieces with the same sites, gates and heavy slices can carry different
    # annotations; a key without their bytes moves these estimates (by about
    # 1e-11 and 1e-16)
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [64, 1, 1], "depth": depth, "seed": seed, "gates": "weak", "strength": strength}
    )
    s = syn.synthesis_of_circuit(circ)
    cfg = dnc.DncConfig(profile="desk", cap=24, overrides=overrides)
    runs = []
    for memo in (None, _NoHits()):
        trace = dnc.TraceNode("run")
        runs.append((dnc.a_full(s, None, 0.1, 3, config=cfg, trace=trace, memo=memo), trace))
    (est, trace), (est_all, trace_all) = runs
    assert est == est_all and trace.to_dict() == trace_all.to_dict()
    calls = [n for n in trace.walk() if n.kind == "a_recursive"]
    assert len({id(n) for n in calls}) < len(calls)  # the table was used


def test_a_full_identity_small_lattice():
    s, _ = make_synth({"kind": "identity", "dims": [2, 2, 2], "depth": 1})
    assert dnc.a_full(s, None, 0.1, 3) == pytest.approx(1.0, abs=0.1)


def test_a_full_hadamard_cube():
    circ = gc.circuit((2, 2, 2), [[gc.gate("H", [q]) for q in np.ndindex(2, 2, 2)]])
    s = syn.synthesis_of_circuit(circ)
    est = dnc.a_full(s, None, 0.1, 3)
    assert abs(est - 2.0**-8) <= 0.1


# ---------------------------------------------------------------------------
# heavy slices
# ---------------------------------------------------------------------------


def desk_run(spec, delta, D=3, overrides=None, trace=None):
    s, circ = make_synth(spec)
    cfg = dnc.DncConfig(profile="desk", overrides=overrides or {}, cap=24)
    est = dnc.a_full(s, None, delta, D, config=cfg, trace=trace)
    return est, s, circ


def test_heavy_slices_identity_all_heavy():
    s, circ = make_synth({"kind": "identity", "dims": [16, 1, 1], "depth": 1})
    sched = dnc.schedule(16, 1, 3, 0.1, profile="desk")
    slices = gc.enumerate_slices(circ, 0, sched.slice_width, sched.max_gap)
    heavy, enough = dnc.heavy_slices(
        s, slices, sched, lambda wsyn, err: oracle.synthesis_value_exact(wsyn)
    )
    assert heavy == slices
    assert enough


def test_heavy_slices_x_layer_none_heavy():
    s, circ = make_synth({"kind": "x_layer", "dims": [16, 1, 1], "depth": 1})
    sched = dnc.schedule(16, 1, 3, 0.1, profile="desk")
    slices = gc.enumerate_slices(circ, 0, sched.slice_width, sched.max_gap)
    heavy, enough = dnc.heavy_slices(
        s, slices, sched, lambda wsyn, err: oracle.synthesis_value_exact(wsyn)
    )
    assert heavy == []
    assert not enough


def test_heavy_classification_matches_direct_thresholding():
    spec = {"kind": "brickwork", "dims": [14, 1, 1], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.2}
    s, circ = make_synth(spec)
    sched = dnc.schedule(14, 1, 3, 0.1, profile="desk")
    slices = gc.enumerate_slices(circ, 0, sched.slice_width, sched.max_gap)
    heavy, _ = dnc.heavy_slices(
        s, slices, sched, lambda wsyn, err: oracle.synthesis_value_exact(wsyn)
    )
    lo, hi = sched.heavy_thresholds()
    midpoint = 0.5 * (lo + hi)
    direct = [sl for sl in slices if syn.slice_weight(s, sl) >= midpoint]
    assert heavy == direct


def test_slice_weight_synthesis_matches_full_system_weight():
    spec = {"kind": "brickwork", "dims": [12, 1, 1], "depth": 2, "seed": 8, "gates": "haar"}
    s, circ = make_synth(spec)
    sl = gc.Slice(0, 4, 8)
    wsyn = dnc.slice_weight_synthesis(s, sl)
    assert wsyn.N == ()
    assert wsyn.gamma.dims[0] <= sl.width + 2 * circ.depth
    assert oracle.synthesis_value_exact(wsyn) == pytest.approx(
        syn.slice_weight(s, sl), abs=1e-12
    )


def test_slice_weight_synthesis_on_a_child_shifts_origin_and_annotations():
    s, _ = make_synth({"kind": "brickwork", "dims": [16], "depth": 1, "seed": 4, "gates": "weak", "strength": 0.2})
    right = syn.split_at_cuts(syn.cut_data(s, gc.Slice(0, 2, 4), syn.CutCalculus())).right
    assert right.gamma.dims == (14,)
    far = dnc.slice_weight_synthesis(right, gc.Slice(0, 6, 8))  # slab [5, 9)
    assert far.M == ((1,), (2,)) and far.L == ((0,), (3,))
    assert far.cut_ops == ()  # the input state lies off the slab
    near = dnc.slice_weight_synthesis(right, gc.Slice(0, 2, 4))  # slab [1, 5)
    assert near.M == ((1,), (2,))
    assert [(op.kind, op.qubits) for op in near.cut_ops] == [("input_state", ((0,),))]
    assert oracle.synthesis_value_exact(near) == pytest.approx(
        syn.slice_weight(right, gc.Slice(0, 2, 4)), abs=1e-12
    )


# ---------------------------------------------------------------------------
# region Z and combination arithmetic
# ---------------------------------------------------------------------------


def test_select_region_Z_hand_geometry():
    # length 100, z width 50 centered at 50 -> [25, 75)
    s, _ = make_synth({"kind": "identity", "dims": [100], "depth": 1})
    sched = dnc.schedule(100, 1, 3, 0.1, profile="desk", Delta=2, z_width=50)
    heavy = [gc.Slice(0, lo, lo + 2) for lo in range(0, 99, 4)]
    region, chosen = dnc.select_region_Z(s, sched, heavy)
    assert (region.lo, region.hi) == (25, 75)
    assert [c.lo for c in chosen] == [28, 32]  # left-most heavy slices inside Z
    assert all(c.lo >= 25 and c.hi <= 75 for c in chosen)


def test_select_region_Z_errors_when_too_few():
    s, _ = make_synth({"kind": "identity", "dims": [40], "depth": 1})
    sched = dnc.schedule(40, 1, 3, 0.1, profile="desk", Delta=3, z_width=8)
    heavy = [gc.Slice(0, 0, 2), gc.Slice(0, 36, 38)]
    with pytest.raises(dnc.SpacingError, match="spacing"):
        dnc.select_region_Z(s, sched, heavy)


def test_combine_delta1():
    assert dnc.inclusion_exclusion_combine([3.0], {}, {}, [1.0], K=2, Delta=1) == 3.0


def test_combine_delta2_unit_inputs():
    out = dnc.inclusion_exclusion_combine(
        [1.0, 1.0], {(1, 2): 1.0}, {}, [1.0, 1.0], K=2, Delta=2
    )
    assert out == pytest.approx(1.0)


def test_combine_delta3_unit_inputs_and_sign():
    single = [1.0, 1.0, 1.0]
    double = {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}
    multi = {(1, 3, (2,)): 1.0}
    out = dnc.inclusion_exclusion_combine(single, double, multi, [1.0] * 3, K=2, Delta=3)
    assert out == pytest.approx(3.0 - 3.0 + 1.0)
    # sigma = {2} carries sign (-1)^(|sigma|+1) = +1
    out2 = dnc.inclusion_exclusion_combine(single, double, {(1, 3, (2,)): 2.0}, [1.0] * 3, K=2, Delta=3)
    assert out2 == pytest.approx(2.0)


def test_combine_kappa_coefficients():
    kap = [0.5, 2.0]
    K = 1
    out = dnc.inclusion_exclusion_combine(
        [1.0, 1.0], {(1, 2): 1.0}, {}, kap, K=K, Delta=2
    )
    p = 4 * K + 1
    assert out == pytest.approx(0.5**-p + 2.0**-p - 1.0**-p)


def test_combine_missing_keys():
    with pytest.raises(KeyError, match="missing sub-value"):
        dnc.inclusion_exclusion_combine([1.0, 1.0], {}, {}, [1.0, 1.0], K=1, Delta=2)


def test_combine_out_of_range_normalization_raises_schedule_error():
    # the paper-profile K = 1000 at n = 1024: 0.5^4001 underflows to 0
    with pytest.raises(dnc.ScheduleError, match=r"kappa = 0\.5, K = 1000"):
        dnc.inclusion_exclusion_combine([1e-3], {}, {}, [0.5], 1000, 1)
    # kappa^(4K+1) = 1e-300 is representable but the term overflows
    with pytest.raises(dnc.ScheduleError, match="K = 1"):
        dnc.inclusion_exclusion_combine([1e300], {}, {}, [1e-60], 1, 1)
    # a product kappa_i kappa_j that underflows in a double term
    with pytest.raises(dnc.ScheduleError):
        dnc.inclusion_exclusion_combine([0.1, 0.1], {(1, 2): 0.1}, {}, [1e-40, 1e-40], 1, 2)


@settings(max_examples=40, deadline=None)
@given(
    delta=st.integers(min_value=1, max_value=4),
    value=st.floats(min_value=0.0, max_value=1.0),
    kappa=st.floats(min_value=0.3, max_value=1.0),
)
def test_combine_telescopes_on_constant_inputs(delta, value, kappa):
    # if every sub-product equals v * kappa-powers, the signed sum returns v
    K = 2
    p = 4 * K + 1
    single = [value * kappa**p] * delta
    double = {(i, j): value * kappa ** (2 * p) for i in range(1, delta + 1) for j in range(i + 1, delta + 1)}
    multi = {
        (i, j, sig): value * kappa ** (2 * p)
        for i in range(1, delta + 1)
        for j in range(i + 2, delta + 1)
        for sig in dnc.nonempty_subsets(range(i + 1, j))
    }
    out = dnc.inclusion_exclusion_combine(single, double, multi, [kappa] * delta, K=K, Delta=delta)
    assert out == pytest.approx(value, abs=1e-9)


# ---------------------------------------------------------------------------
# dimension reduction
# ---------------------------------------------------------------------------


def test_dimension_reduce_value_invariant():
    s, _ = make_synth({"kind": "identity", "dims": [2, 2, 2], "depth": 1})
    reduced = dnc.dimension_reduce(s, 2)
    assert reduced.declared_dims == (2, 2)
    assert oracle.synthesis_value_exact(reduced) == pytest.approx(1.0, abs=1e-12)

    s2, _ = make_synth({"kind": "brickwork", "dims": [6, 2, 1], "depth": 1, "seed": 4, "gates": "haar"})
    before = oracle.synthesis_value_exact(s2)
    after = oracle.synthesis_value_exact(dnc.dimension_reduce(s2, 1))
    assert after == pytest.approx(before, abs=1e-12)


def test_dimension_reduce_thin_axis_noop_on_values():
    s, _ = make_synth({"kind": "brickwork", "dims": [8, 1, 1], "depth": 1, "seed": 2, "gates": "haar"})
    reduced = dnc.dimension_reduce(s, 2)
    assert len(reduced.declared_dims) == 2
    assert reduced.gamma is s.gamma
    assert oracle.synthesis_value_exact(reduced) == pytest.approx(
        oracle.synthesis_value_exact(s), abs=1e-15
    )


def test_dimension_reduce_guards():
    s, _ = make_synth({"kind": "identity", "dims": [4, 2], "depth": 1})
    with pytest.raises(ValueError):
        dnc.dimension_reduce(dnc.dimension_reduce(s, 1), 0)
    with pytest.raises(ValueError):
        dnc.dimension_reduce(s, 5)


# ---------------------------------------------------------------------------
# a_recursive structure
# ---------------------------------------------------------------------------


def test_a_recursive_stopping_branch_delegates():
    s, circ = make_synth({"kind": "brickwork", "dims": [8, 1, 1], "depth": 1, "seed": 2, "gates": "haar"})
    sched = dnc.schedule(8, 1, 3, 0.1, profile="desk", w0=50)
    heavy = [gc.Slice(0, 2, 4)]
    out = dnc.a_recursive(s, sched, heavy, 3, None)
    expect = dnc.a_full(dnc.dimension_reduce(s, 0), None, sched.eps, 2)
    assert out == pytest.approx(expect, abs=1e-14)


def test_a_recursive_delta1_reduces_to_single_product():
    spec = {"kind": "brickwork", "dims": [14, 1, 1], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.15}
    s, circ = make_synth(spec)
    sched = dnc.schedule(14, 1, 3, 0.05, profile="desk", Delta=1, h=1)
    slices = gc.enumerate_slices(circ, 0, sched.slice_width, sched.max_gap)
    region, chosen = dnc.select_region_Z(s, sched, slices)
    sl = chosen[0]
    calc = syn.CutCalculus("exact-spectral", K=sched.K, T=sched.T)
    data = syn.cut_data(s, sl, calc)
    sp = syn.split_at_cuts(data)
    expect = (
        dnc.a_recursive(sp.left, sched, dnc._within(slices, 0, sl.hi), 3, None, eta=sched.eta - 1)
        * dnc.a_recursive(sp.right, sched, dnc._within(slices, sl.lo, 14), 3, None, eta=sched.eta - 1)
        / data.kappa ** (4 * sched.K + 1)
    )
    got = dnc.a_recursive(s, sched, slices, 3, None)
    assert got == pytest.approx(expect, rel=1e-12)


def test_spec_desk_example_14_qubit_chain():
    # seeded 1D chain, 14 qubits, d = 1, desk profile (Delta=2, K=T=2, h=1)
    spec = {"kind": "brickwork", "dims": [14, 1, 1], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.15}
    delta = 0.1
    est, s, circ = desk_run(spec, delta, overrides={"Delta": 2, "h": 1, "w0": 11, "z_width": 8})
    target = oracle.synthesis_value_exact(s)
    assert abs(est - target) <= delta


def test_end_to_end_error_within_delta_weak_chain():
    spec = {"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 7, "gates": "weak", "strength": 0.15}
    for delta in (0.1, 0.05):
        est, s, _ = desk_run(spec, delta)
        assert abs(est - oracle.synthesis_value_exact(s)) <= delta


def test_end_to_end_scrambling_returns_zero_correctly():
    spec = {"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 2, "gates": "haar"}
    est, s, _ = desk_run(spec, 0.05)
    assert est == 0.0
    assert oracle.synthesis_value_exact(s) <= 0.05


def test_end_to_end_two_level_recursion():
    # 24-qubit chains force the recursion to cut annotated children again
    for seed in (31, 37, 41):
        spec = {"kind": "brickwork", "dims": [24, 1, 1], "depth": 1, "seed": seed,
                "gates": "weak", "strength": 0.12}
        trace = dnc.TraceNode("run")
        est, s, _ = desk_run(spec, 0.05, trace=trace)
        internal = [
            n for n in trace.walk() if n.kind == "a_recursive" and not n.meta.get("stopped")
        ]
        assert len(internal) >= 2  # a child was itself cut
        assert abs(est - oracle.synthesis_value_exact(s, cap=24)) <= 0.05


def test_end_to_end_power_encoding_calculus():
    spec = {"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.15}
    s, circ = make_synth(spec)
    cfg = dnc.DncConfig(profile="desk", calculus="power-encoding", cap=24)
    est = dnc.a_full(s, None, 0.05, 3, config=cfg)
    assert abs(est - oracle.synthesis_value_exact(s)) <= 0.05


def test_config_names_the_calculus_mode_and_rejects_unknown_ones():
    # K and T come from the schedule, so the mode is all a run chooses
    assert [f.name for f in dataclasses.fields(dnc.DncConfig)] == ["calculus", "profile", "overrides", "cap"]
    with pytest.raises(ValueError, match="unknown calculus mode"):
        dnc.DncConfig(calculus="power")


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def run_with_trace(spec, delta, overrides=None, D=3):
    trace = dnc.TraceNode("run")
    est, s, circ = desk_run(spec, delta, D=D, overrides=overrides, trace=trace)
    return est, s, circ, trace


def internal_recursive_nodes(trace):
    return [
        n for n in trace.walk() if n.kind == "a_recursive" and not n.meta.get("stopped")
    ]


def test_trace_branch_counts_delta2():
    _, _, _, trace = run_with_trace({"kind": "identity", "dims": [16, 1, 1], "depth": 1}, 0.1)
    nodes = internal_recursive_nodes(trace)
    assert nodes
    for node in nodes:
        Delta = 2
        assert node.count("left") == Delta
        assert node.count("right") == Delta
        assert node.count("kappa") == Delta
        assert node.count("middle") == Delta * (Delta - 1) // 2
        assert node.count("sigma_term") == 0


def test_trace_branch_counts_delta3_with_sigma():
    _, _, _, trace = run_with_trace(
        {"kind": "identity", "dims": [20, 1, 1], "depth": 1}, 0.1, overrides={"Delta": 3}
    )
    nodes = internal_recursive_nodes(trace)
    assert nodes
    for node in nodes:
        Delta = 3
        assert node.count("left") == Delta
        assert node.count("right") == Delta
        assert node.count("kappa") == Delta
        assert node.count("middle") == Delta * (Delta - 1) // 2
        sigma_expect = sum(
            2 ** (j - i - 1) - 1 for i in range(1, Delta + 1) for j in range(i + 2, Delta + 1)
        )
        assert node.count("sigma_term") == sigma_expect == 1


def test_trace_width_contraction():
    _, _, _, trace = run_with_trace({"kind": "identity", "dims": [24, 1, 1], "depth": 1}, 0.1)
    sched = dnc.schedule(24, 1, 3, 0.1, profile="desk")
    for node in trace.walk():
        if node.kind in ("left", "right"):
            assert node.meta["child_width"] <= 0.75 * node.meta["parent_width"] + sched.slice_width


def test_trace_terminates_with_floors_respected():
    _, _, _, trace = run_with_trace({"kind": "identity", "dims": [24, 1, 1], "depth": 1}, 0.1)
    sched = dnc.schedule(24, 1, 3, 0.1, profile="desk")
    for node in trace.walk():
        if node.kind == "a_recursive" and not node.meta.get("stopped"):
            assert node.meta["width"] >= sched.w0
            assert node.meta["eta"] >= 1


def test_trace_json_serializable(tmp_path):
    import json

    _, _, _, trace = run_with_trace({"kind": "identity", "dims": [16, 1, 1], "depth": 1}, 0.1)
    path = tmp_path / "trace.json"
    with open(path, "w") as f:
        json.dump(trace.to_dict(), f)
    assert path.stat().st_size > 0


def test_determinism_bit_identical_values_and_traces():
    spec = {"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 7, "gates": "weak", "strength": 0.15}
    est1, _, _, tr1 = run_with_trace(spec, 0.05)
    est2, _, _, tr2 = run_with_trace(spec, 0.05)
    assert est1 == est2
    assert tr1.to_dict() == tr2.to_dict()
    assert desk_run(spec, 0.05)[0] == est1  # untraced: the same value


def test_heavy_slices_keep_their_frame_on_a_shifted_synthesis():
    # a right child starts at 5 in the lattice; a_full weighs slices in its own
    # frame and must cut only at slices it weighed, wherever the child sits
    s, _ = make_synth(
        {"kind": "brickwork", "dims": [24, 1, 1], "depth": 1, "seed": 3, "gates": "weak", "strength": 0.1}
    )
    right = syn.split_at_cuts(syn.cut_data(s, gc.Slice(0, 5, 7), syn.CutCalculus())).right
    trace = dnc.TraceNode("run")
    dnc.a_full(right, None, 0.1, 3, trace=trace)
    (top,) = trace.children
    heavy = [n.meta["slice"] for n in top.children if n.kind == "slice_weight" and n.value >= n.meta["midpoint"]]
    (rec,) = [n for n in top.children if n.kind == "a_recursive"]
    assert set(rec.meta["chosen"]) <= set(heavy)
    assert rec.meta["chosen"] == [gc.Slice(0, 4, 6), gc.Slice(0, 8, 10)]


def test_within_keeps_the_slices_inside_a_range_in_its_frame():
    sl = lambda lo, hi: gc.Slice(0, lo, hi)
    slices = [sl(0, 2), sl(3, 5), sl(4, 6), sl(8, 10), sl(9, 11)]
    # (3, 5) straddles lo and (9, 11) straddles hi; (4, 6) and (8, 10) touch the edges
    assert dnc._within(slices, 4, 10) == [sl(0, 2), sl(4, 6)]
    assert dnc._within(slices, 0, 12) == slices
    assert dnc._within(slices, 6, 8) == []
    # the children of a cut at (4, 6) of a 12-wide synthesis both keep it
    cut = sl(4, 6)
    assert cut in dnc._within(slices, 0, cut.hi)
    assert sl(0, 2) in dnc._within(slices, cut.lo, 12)


def test_every_recursion_node_cuts_in_its_own_frame():
    # a weak 64-qubit chain recurses three levels deep (eta 3)
    s, _ = make_synth(
        {"kind": "brickwork", "dims": [64, 1, 1], "depth": 1, "seed": 1, "gates": "weak", "strength": 0.1}
    )
    assert dnc.schedule(64, 1, 3, 0.1, "desk").eta == 3
    trace = dnc.TraceNode("run")
    dnc.a_full(s, None, 0.1, 3, trace=trace)
    (top,) = trace.children
    weighed = {n.meta["slice"] for n in top.children if n.kind == "slice_weight"}
    inside = lambda x, width: 0 <= x.lo and x.hi <= width

    def check(rec, offset):
        # offset: where this node's synthesis starts in the top-level lattice
        assert rec.kind == "a_recursive"
        width = rec.meta["width"]
        if rec.meta.get("stopped"):
            return
        assert inside(rec.meta["region_Z"], width)
        for c in rec.meta["chosen"]:
            assert inside(c, width)
            assert gc.Slice(0, c.lo + offset, c.hi + offset) in weighed
        for side in (n for n in rec.children if n.kind in ("left", "right")):
            sl = side.meta["slice"]
            assert sl in rec.meta["chosen"] and side.meta["parent_width"] == width
            left = side.kind == "left"
            assert side.meta["child_width"] == (sl.hi if left else width - sl.lo)
            (child,) = side.children
            assert child.meta["width"] == side.meta["child_width"]
            check(child, offset if left else offset + sl.lo)

    (rec,) = [n for n in top.children if n.kind == "a_recursive"]
    check(rec, 0)
    internal = [n for n in trace.walk() if n.kind == "a_recursive" and not n.meta.get("stopped")]
    assert max(n.meta["eta"] for n in internal) - min(n.meta["eta"] for n in internal) == 2


def test_expected_node_counts_match_traces():
    configs = [
        ({"kind": "identity", "dims": [16, 1, 1], "depth": 1}, {"Delta": 2}),
        ({"kind": "identity", "dims": [20, 1, 1], "depth": 1}, {"Delta": 3}),
        ({"kind": "identity", "dims": [12, 1, 1], "depth": 1}, {"Delta": 1}),
        ({"kind": "identity", "dims": [24, 1, 1], "depth": 1}, {"Delta": 2}),
        ({"kind": "identity", "dims": [8, 2, 1], "depth": 1}, {"Delta": 1}),
    ]
    delta = 0.1
    for spec, ov in configs:
        _, _, circ, trace = run_with_trace(spec, delta, overrides=ov)
        sched = dnc.schedule(circ.n_qubits, circ.depth, 3, delta, "desk", **ov)
        pred = dnc.expected_node_counts(circ.dims, circ.depth, 3, sched, delta)
        got = trace.counts_by_kind()
        got.pop("run")
        assert pred == got, (spec, pred, got)


def test_expected_node_counts_follow_the_derived_eta_on_128_qubits():
    _, _, circ, trace = run_with_trace({"kind": "identity", "dims": [128, 1, 1], "depth": 1}, 0.1)
    sched = dnc.schedule(circ.n_qubits, circ.depth, 3, 0.1, "desk")
    assert sched.eta == 4
    got = trace.counts_by_kind()
    got.pop("run")
    assert got == dnc.expected_node_counts(circ.dims, circ.depth, 3, sched, 0.1)
    assert got["a_full"] == 374 and got["a_recursive"] == 341


def test_oracle_substitution_residual_bounded():
    # combine with oracle-exact sub-values; residual vs target within the
    # measured-error budget (2e + 2g)^Delta + 3 Delta^2 B3
    spec = {"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 7, "gates": "weak", "strength": 0.15}
    s, circ = make_synth(spec)
    sched = dnc.schedule(16, 1, 3, 0.05, profile="desk")
    slices = gc.enumerate_slices(circ, 0, sched.slice_width, sched.max_gap)
    _, chosen = dnc.select_region_Z(s, sched, slices)
    calc = syn.CutCalculus("exact-spectral", K=sched.K, T=sched.T)
    data = [syn.cut_data(s, sl, calc) for sl in chosen]
    vL, vR = [], []
    for k, sl in enumerate(chosen):
        sp = syn.split_at_cuts(data[k])
        vL.append(oracle.synthesis_value_exact(sp.left))
        vR.append(oracle.synthesis_value_exact(sp.right))
    single = [vL[k] * vR[k] for k in range(len(chosen))]
    phi = syn.middle_between_cuts(data[0], data[1])
    double = {(1, 2): vL[0] * oracle.synthesis_value_exact(phi.middle) * vR[1]}
    combined = dnc.inclusion_exclusion_combine(
        single, double, {}, [d.kappa for d in data], K=sched.K, Delta=2
    )
    target = oracle.synthesis_value_exact(s)
    e = max(d.e_residual for d in data)
    g = max(d.g_residual for d in data)
    model = errmodel.ErrorModel(
        n=16, d=1, D=3, h=sched.h, Delta=2, K=sched.K, T=sched.T, eta=sched.eta,
        e_of_n=e, g_of_n=g,
    )
    _, _, b3 = errmodel.script_bounds(model, sched.eps)
    budget = (2 * e + 2 * g) ** 2 + 3 * 4 * b3
    resid = abs(combined - target)
    print(f"oracle-substitution residual {resid:.3e} budget {budget:.3e} (e={e:.3e}, g={g:.3e})")
    assert resid <= budget
    assert resid <= 0.05
