"""Divide-and-conquer estimator.

`a_full` is the driver: it handles the error-parameter edge cases, enumerates
candidate slices along the widest declared axis, classifies heavy slices via
lower-dimensional weight estimates, and hands off to the recursive subroutine
`a_recursive`, which cuts the lattice at heavy slices inside a central region
and combines recursively-estimated sub-synthesis values by signed
inclusion-exclusion.

Every run can be instrumented with a TraceNode tree whose per-node child
counts are deterministic functions of the schedule and lattice geometry.
Each rule of the recursion is written once, and `expected_node_counts`
predicts those counts by walking the same functions on geometry alone: the
leaf choice (`_leaf`), the cut axis (`widest_axis`), the slice tiling
(`enumerate_slices`), the slab around a slice (`_slab`), the region and its
cuts (`select_region_Z`) and the slices each child gets (`_within`).

Each estimate solves each distinct recursive subproblem once.  On a chain
most of the ~4^eta calls of `a_recursive` repeat one that another call has
already solved: the cuts' annotations come from their band windows alone
(`synthesis.cut_data`), so equal pieces carry equal annotations to the bit.
`a_full` creates one table per estimate and passes it down; only
`synthesis._tabled` reads or writes it, keyed on a tag and a piece's
`synthesis.content_key` (its dims and role bytes, each gate's layer,
own-frame qubits and the identity of its matrix object, and the exact bytes
of its annotations).  A call of `a_recursive` is tagged with its heavy
slices, eta, D and the schedule and stores its value and trace node; hit or
miss, the node is attached under the caller's, shared and never changed, so
the trace reads as if the call had run.  The windows of `cut_data` (omega,
W^dagger W or exact value) share the table, so cuts of different pieces
share the windows they have in common.  The dense leaves of `a_full`
(`brute_force`, and `base` when it is None) are left out on purpose: each
would pay for a `content_key`, desk leaves rarely repeat, and tabling them
slowed desk_corpus's in-process estimate time by about 5% (medians of
alternating processes on a 2-core machine) with every value unchanged.
Nothing is kept from one estimate to the next.

Every synthesis is a box of a root circuit (see `synthesis`), and every
one below the one `a_full` is given (the children and middles of the cuts,
the slabs of `slice_weight_synthesis` and the results of `dimension_reduce`)
is carved from the box of its parent and shares the root's gates, so an
estimate builds no gate and moves no coordinate.  This module reads every
synthesis through its box (`dims`, `depth`, `origin`, `ids`, `ops`); slices
and trace metadata stay in each piece's own frame.
"""
from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import errmodel, oracle
from .geomcircuit import Slice, cone_gates, enumerate_slices
from .synthesis import (
    SplitError,
    Synthesis,
    cut_data,
    middle_between_cuts,
    split_at_cuts,
    _ALL_L,
    _recast,
    _segment,
    _tabled,
)


class ScheduleError(ValueError):
    pass


class SpacingError(RuntimeError):
    """The slice-spacing guarantee failed: fewer than Delta heavy slices in Z."""


@dataclass(frozen=True)
class ParameterSchedule:
    """All scalar knobs of the estimator.

    Paper profile derives every field from (n, d, D, delta); the desk profile
    starts from small validated defaults.  Either takes overrides, each naming
    a knob: any field but the inputs `d` and `delta` (`check_overrides` rejects
    any other key).  Each field is derived in turn from the ones before it and
    an override wins where one is given, so it reaches every field derived
    from it (a paper `h` moves `h_margin`, `z_width` and `w0`).  The desk
    recursion depth grows with n, as the paper's does: eta = max(2,
    ceil(log2(n / w0))) with the final w0, so the recursion can go on halving
    until a piece is narrower than w0 (where it stops anyway).  `h`
    drives the heavy-slice thresholds 2^(log delta / h); `h_margin` is the
    allowed number of non-heavy slices (the paper couples both roles in one
    h(n)).  `T` sets each cut's kappa.  `K`, the paper's power (rho/kappa)^{2K},
    reaches no estimate: a cut applies its kept eigenprojector, the limit of
    that power at a heavy slice; `errmodel.script_bounds` still reads it.
    """

    delta: float
    eps: float
    h: float
    h_margin: int
    eta: int
    Delta: int
    K: int
    T: int
    w0: int
    z_width: int
    slice_width: int
    max_gap: int
    d: int

    def __post_init__(self):
        if self.eps > self.delta + 1e-15:
            raise ScheduleError("eps must not exceed delta")
        if self.slice_width < 2 * self.d:
            raise ScheduleError(
                f"slice_width {self.slice_width} below minimum 2d = {2 * self.d}"
            )
        if self.Delta < 1:
            raise ScheduleError("Delta must be >= 1")
        if self.K < 1 or self.T < 1:
            raise ScheduleError("K and T must be >= 1")
        if self.h < 1:
            raise ScheduleError("h must be >= 1")

    def heavy_thresholds(self) -> tuple[float, float]:
        """(lower, upper) slice-weight thresholds 2^(log d / h), 2^(log d / 2h)."""
        l = math.log2(self.delta)
        return 2.0 ** (l / self.h), 2.0 ** (l / (2 * self.h))

    def error_model(self, n: int, D: int) -> errmodel.ErrorModel:
        """The error model of an n-qubit, D-dimensional run under this schedule."""
        return errmodel.ErrorModel(n=n, d=self.d, D=D, h=self.h, Delta=self.Delta, K=self.K, T=self.T,
                                   eta=self.eta, e_of_n=errmodel.default_e_of_n(self.delta, n), g_of_n=0.0)


def check_profile(profile) -> None:
    """Raise ScheduleError unless the profile is "desk" or "paper"."""
    if profile not in ("desk", "paper"):
        raise ScheduleError(f"unknown profile {profile!r}")


def check_delta(delta) -> None:
    """Raise ScheduleError unless delta is a number >= 0 (not a bool, not NaN)."""
    if isinstance(delta, bool) or not isinstance(delta, (int, float, np.integer, np.floating)) or not delta >= 0:
        raise ScheduleError(f"delta must be >= 0, got {delta!r}")


def check_overrides(overrides) -> None:
    """Raise ScheduleError unless every key names a knob, given an int (or, for a float knob, a float); no bool or NaN."""
    fields = {f.name: f.type for f in dataclasses.fields(ParameterSchedule) if f.name not in ("d", "delta")}
    unknown = sorted(set(overrides) - set(fields))
    if unknown:
        raise ScheduleError(
            f"unknown schedule override {', '.join(map(repr, unknown))}; the knobs are {', '.join(sorted(fields))}"
        )
    for name, value in overrides.items():
        if fields[name] == "int" and (isinstance(value, bool) or not isinstance(value, int)):
            raise ScheduleError(f"schedule override {name!r} must be an integer, got {value!r}")
        if fields[name] == "float" and (
                isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value)):
            raise ScheduleError(f"schedule override {name!r} must be a number (not NaN), got {value!r}")


def schedule(n: int, d: int, D: int, delta: float, profile: str = "paper", **overrides) -> ParameterSchedule:
    """Derive the parameter schedule for an n-qubit, depth-d, D-dimensional run."""
    if n < 2 or d < 1 or D < 2 or delta <= 0:
        raise ScheduleError("require n >= 2, d >= 1, D >= 2, delta > 0")
    check_profile(profile)
    check_overrides(overrides)
    fields = dict(delta=delta, d=d)

    def put(name, derived):
        fields[name] = overrides.get(name, derived)
        return fields[name]

    ln = math.log2(n)
    put("eps", delta * 2.0 ** (-10.0 * ln * math.log2(max(ln, 1.0))))
    if profile == "paper":
        h = put("h", math.ceil(ln**7))
        put("h_margin", h)
        put("eta", math.ceil(ln / (D * math.log2(4.0 / 3.0))))
        Delta = put("Delta", math.ceil(ln))
        put("K", math.ceil(ln**3))
        put("T", math.ceil(ln**3))
        put("w0", 20 * d * (Delta + h + 2))
        put("z_width", 10 * d * (Delta + h + 2))
        put("slice_width", 10 * d)
        put("max_gap", 10 * d)
    else:  # desk
        put("h", 4)
        put("h_margin", 1)
        put("K", 2)
        put("T", 2)
        Delta = put("Delta", 2)
        slice_width = put("slice_width", 2 * d)
        max_gap = put("max_gap", 2 * d)
        # wide enough that Delta whole slices fit regardless of tiling alignment
        z_width = put("z_width", Delta * (slice_width + max_gap) + slice_width)
        w0 = put("w0", z_width + slice_width + 1)
        if w0 < 1:
            raise ScheduleError("w0 must be >= 1")
        # enough levels to halve n down to w0; the width check stops sooner
        put("eta", max(2, math.ceil(math.log2(n / w0))))
    return ParameterSchedule(**fields)


# ---------------------------------------------------------------------------
# recursion trace
# ---------------------------------------------------------------------------


@dataclass
class TraceNode:
    kind: str
    meta: dict = field(default_factory=dict)
    value: float | None = None
    children: list["TraceNode"] = field(default_factory=list)

    def add(self, kind: str, **meta) -> "TraceNode":
        node = TraceNode(kind, meta)
        self.children.append(node)
        return node

    def count(self, kind: str) -> int:
        return sum(1 for c in self.children if c.kind == kind)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def counts_by_kind(self) -> dict:
        out: dict[str, int] = {}
        for node in self.walk():
            out[node.kind] = out.get(node.kind, 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "meta": {k: _jsonable(v) for k, v in self.meta.items()},
            "value": self.value,
            "children": [c.to_dict() for c in self.children],
        }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, Slice):
        return {"axis": v.axis, "lo": v.lo, "hi": v.hi}
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    return v


@dataclass
class DncConfig:
    profile: str = "desk"
    overrides: dict = field(default_factory=dict)
    cap: int = oracle.DEFAULT_CAP

    def __post_init__(self):
        # reject an unknown profile or override before any work, even where no schedule is built
        check_profile(self.profile)
        check_overrides(self.overrides)


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def widest_axis(s: Synthesis) -> int:
    return min(s.declared_axes, key=lambda a: (-s.dims[a], a))


def dimension_reduce(s: Synthesis, axis: int) -> Synthesis:
    """Absorb one declared axis into the site structure (value unchanged).

    The circuit, registers, and annotations are untouched; only the declared
    dimensionality shrinks: the result is the same box.
    """
    if axis not in s.declared_axes:
        raise ValueError(f"axis {axis} is not a declared dimension")
    if len(s.declared_axes) < 2:
        raise ValueError("cannot reduce below one declared dimension")
    return _recast(s, declared_axes=tuple(a for a in s.declared_axes if a != axis))


def _slab(s, sl: Slice) -> tuple[int, int]:
    """[lo, hi) along the slice's axis of the slab around `sl`: the slice and
    d sites on either side, within the lattice, which holds the slice's
    backward light cone.  `s` is anything with `dims` and `depth`."""
    return max(0, sl.lo - s.depth), min(s.dims[sl.axis], sl.hi + s.depth)


def slice_weight_synthesis(s: Synthesis, sl: Slice) -> Synthesis:
    """The slice-weight quantity tr <0_M| phi |0_M> as a slab-restricted synthesis.

    Only gates in the backward light cone of the slice matter, so the circuit
    is restricted to its slab (`_slab`); the slice is the M register, the
    rest of the slab is traced, and N is empty.  The slice seeds the cone as
    an interval, so no site of s is visited.
    """
    axis = sl.axis
    o = s.origin[axis]
    slab_lo, slab_hi = _slab(s, sl)
    cone, reached = cone_gates(s.root, (), "backward", among=s.ids, slab=(axis, o + sl.lo, o + sl.hi))
    if any(q[axis] < o + slab_lo or q[axis] >= o + slab_hi for q in reached):
        raise AssertionError("backward cone of the slice escaped its slab")
    for op in s.ops:
        lo, hi = (x - o for x in op.extent(axis))
        if hi < slab_lo or lo >= slab_hi:
            if op.kind == "sandwich" or op.kind == "insertion":
                raise SplitError("slice weight undefined with off-slab sandwich operators")
        elif lo < slab_lo or hi >= slab_hi:
            raise SplitError(f"cut operator on {op.qubits} straddles the slab")
    return _segment(s, axis, slab_lo, slab_hi, cone, s.ops, _ALL_L, ((sl.lo, sl.hi, b"M"),))


def select_region_Z(s: Synthesis, sched: ParameterSchedule, K_heavy: list[Slice]):
    """Central sub-hyper-cube Z and the Delta left-most heavy slices inside it."""
    axis = K_heavy[0].axis
    length = s.dims[axis]
    z = min(sched.z_width, length)
    lo = (length - z) // 2
    hi = lo + z
    region = Slice(axis, lo, hi)
    chosen = [sl for sl in sorted(K_heavy, key=lambda x: x.lo) if sl.lo >= lo and sl.hi <= hi]
    if len(chosen) < sched.Delta:
        raise SpacingError(
            f"fewer than Delta = {sched.Delta} heavy slices lie fully inside the "
            f"central region Z = [{lo},{hi}); the spacing precondition (collective "
            f"width between Delta slices at most 10d(Delta + h)) is violated"
        )
    return region, chosen[: sched.Delta]


def inclusion_exclusion_combine(single, double, multi, kappas, Delta: int) -> float:
    """Signed combination of sub-synthesis products.

    single[i-1]        product for cut i                    (i = 1..Delta)
    double[(i, j)]     product for cuts i < j
    multi[(i, j, sigma)]  product for cuts i, j >= i+2 and nonempty sigma,
                       sigma a tuple of indices in {i+1, .., j-1}
    Coefficients 1/kappa_i and 1/(kappa_i kappa_j), as the annotations carry
    f(rho/kappa), divided in turn so that no product of kappas underflows;
    sigma terms carry sign (-1)^(|sigma|+1).  Raises ScheduleError when a term is not finite.
    """
    if len(single) != Delta or len(kappas) != Delta:
        raise KeyError("missing sub-value keys: need one single product and kappa per cut")

    def scaled(value, *kaps):
        term = value
        for kap in kaps:
            term = term / float(kap)
        if not math.isfinite(term):
            raise ScheduleError(f"inclusion-exclusion term out of floating-point range: "
                                f"product {value:.6g} over kappas {', '.join(f'{k:.6g}' for k in kaps)}")
        return term

    total = 0.0
    for i in range(1, Delta + 1):
        if kappas[i - 1] <= 0:
            raise ValueError("kappas must be positive")
        total += scaled(single[i - 1], kappas[i - 1])
    for i in range(1, Delta + 1):
        for j in range(i + 1, Delta + 1):
            if (i, j) not in double:
                raise KeyError(f"missing sub-value keys: double term {(i, j)}")
            total -= scaled(double[(i, j)], kappas[i - 1], kappas[j - 1])
    for i in range(1, Delta + 1):
        for j in range(i + 2, Delta + 1):
            for sigma in nonempty_subsets(range(i + 1, j)):
                if (i, j, sigma) not in multi:
                    raise KeyError(f"missing sub-value keys: multi term {(i, j, sigma)}")
                sign = (-1.0) ** (len(sigma) + 1)
                total += sign * scaled(multi[(i, j, sigma)], kappas[i - 1], kappas[j - 1])
    return total


def nonempty_subsets(indices) -> list[tuple[int, ...]]:
    """All nonempty subsets of `indices`, lexicographically ordered."""
    idx = list(indices)
    out = []
    for mask in range(1, 2 ** len(idx)):
        out.append(tuple(idx[k] for k in range(len(idx)) if mask >> k & 1))
    return sorted(out)


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------


def _leaf(n: int, delta: float, D: int) -> str | None:
    """The leaf `a_full` takes on n qubits at `delta` and D, as its trace node
    kind, or None where it weighs slices and recurses: brute force while delta
    is at most n^-(log2 n)^2, 1/2 from delta = 1/2 on, else the base solver
    at D = 2."""
    if delta <= float(n) ** -(math.log2(n) ** 2):
        return "brute_force"
    if delta >= 0.5:
        return "return_half"
    return "base" if D == 2 else None


def heavy_slices(
    s: Synthesis,
    slices: list[Slice],
    sched: ParameterSchedule,
    subsolver,
    trace: TraceNode | None = None,
) -> tuple[list[Slice], bool]:
    """Classify slices as heavy via estimated post-selected weights.

    A slice is heavy when its weight estimate clears the midpoint of the two
    thresholds 2^(log d / 2h) and 2^(log d / h); the estimation error margin
    e1(delta, h) is exactly half their gap, so this separates the two cases.
    `enough` requires all but h_margin slices to be heavy (at least one).
    """
    lo_thr, hi_thr = sched.heavy_thresholds()
    midpoint = 0.5 * (lo_thr + hi_thr)
    err = errmodel.e1(sched.delta, sched.h)
    heavy = []
    for sl in slices:
        wsyn = slice_weight_synthesis(s, sl)
        est = subsolver(wsyn, err)
        if trace is not None:
            node = trace.add("slice_weight", slice=sl, estimate=est, midpoint=midpoint)
            node.value = est
        if est >= midpoint:
            heavy.append(sl)
    enough = len(heavy) >= max(1, len(slices) - sched.h_margin)
    return heavy, enough


def a_full(
    s: Synthesis,
    base,
    delta: float,
    D: int,
    config: DncConfig | None = None,
    trace: TraceNode | None = None,
    memo: dict | None = None,
) -> float:
    """Driver: delta edge cases, heavy-slice scan, dispatch to the recursion.

    `base(s, delta)` solves the D = 2 leaves; None means exact dense
    evaluation (`oracle.synthesis_value_exact`) under `config.cap`.  `memo`
    is the estimate's table of work (recursive calls and cut windows); a
    call without one starts a new table, so a repeated subproblem is solved
    (and `base` called for its leaves) once per estimate.  A negative or NaN
    delta, a D below 2, and above the leaves a D more than one past the
    declared dimensions of `s`, raise ScheduleError before any evaluation.
    """
    check_delta(delta)
    if D < 2:
        raise ScheduleError(f"D must be >= 2, got {D}")
    cfg = config or DncConfig()
    memo = {} if memo is None else memo
    node = TraceNode("a_full", dict(dims=s.declared_dims, D=D, delta=delta))
    if trace is not None:
        trace.children.append(node)

    leaf = _leaf(s.n_qubits, delta, D)
    if leaf is None:
        val = _scan_and_recurse(s, base, delta, D, cfg, node, memo)
    elif leaf == "return_half":
        val = 0.5
    elif leaf == "base" and base is not None:
        val = base(s, delta)
    else:  # brute force, or the base leaf evaluated exactly
        val = oracle.synthesis_value_exact(s, cap=cfg.cap)
    if leaf is not None:
        node.add(leaf).value = val
    node.value = val
    return val


def _scan_and_recurse(s, base, delta, D, cfg, node, memo) -> float:
    """`a_full` above the leaves: weigh the slices, then recurse at the heavy ones."""
    if D > len(s.declared_axes) + 1:  # each level below absorbs one declared axis
        raise ScheduleError(
            f"D = {D} needs at least {D - 1} declared dimensions, the synthesis has "
            f"{len(s.declared_axes)} (dims {s.declared_dims})")
    sched = schedule(s.n_qubits, s.depth, D, delta, cfg.profile, **cfg.overrides)
    axis = widest_axis(s)
    if s.dims[axis] < sched.slice_width:  # no slice fits on the axis: reduce the dimension
        return a_full(dimension_reduce(s, axis), base, delta, D - 1, cfg, node, memo)
    slices = enumerate_slices(s, axis, sched.slice_width, sched.max_gap)

    def subsolver(wsyn: Synthesis, err: float) -> float:
        reduced = dimension_reduce(wsyn, axis)
        return a_full(reduced, base, err, D - 1, cfg, node, memo)

    K_heavy, enough = heavy_slices(s, slices, sched, subsolver, trace=node)
    if not enough:
        node.add("none_heavy").value = 0.0
        return 0.0
    return a_recursive(s, sched, K_heavy, D, base, config=cfg, trace=node, memo=memo)


def _within(slices: list[Slice], lo: int, hi: int) -> list[Slice]:
    """The slices inside [lo, hi), shifted by -lo into the frame of that range."""
    return [Slice(sl.axis, sl.lo - lo, sl.hi - lo) for sl in slices if lo <= sl.lo and sl.hi <= hi]


def a_recursive(
    s: Synthesis,
    sched: ParameterSchedule,
    K_heavy: list[Slice],
    D: int,
    base,
    eta: int | None = None,
    config: DncConfig | None = None,
    trace: TraceNode | None = None,
    memo: dict | None = None,
) -> float:
    """Recursive subroutine: cut at Delta heavy slices in the central region
    and combine sub-synthesis estimates by signed inclusion-exclusion.

    K_heavy is given in the frame of `s`; each child gets the slices inside
    it, in its own frame.  `memo` is the estimate's table of work (see the
    module docstring); a call without one starts a new table.  The call is
    looked up there, and its trace node attached under `trace`, hit or miss.
    """
    cfg = config or DncConfig()
    if eta is None:
        eta = sched.eta
    if not K_heavy:
        raise SpacingError("K_heavy is empty")
    memo = {} if memo is None else memo
    tag = (tuple(K_heavy), eta, D, sched)
    val, node = _tabled(memo, tag, s, lambda: _recurse(s, sched, K_heavy, D, base, eta, cfg, memo))
    if trace is not None:
        trace.children.append(node)
    return val


def _recurse(s, sched, K_heavy, D, base, eta, cfg, memo) -> tuple[float, TraceNode]:
    """An `a_recursive` call's work: (its value, its detached trace node).  Children go through `a_recursive`."""
    axis = K_heavy[0].axis
    length = s.dims[axis]
    node = TraceNode("a_recursive", dict(width=length, eta=eta, D=D, dims=s.declared_dims))

    if length < sched.w0 or eta < 1:
        reduced = dimension_reduce(s, axis)
        val = a_full(reduced, base, sched.eps, D - 1, cfg, node, memo)
        node.meta["stopped"] = True
        node.value = val
        return val, node

    region, chosen = select_region_Z(s, sched, K_heavy)
    node.meta["region_Z"] = region
    node.meta["chosen"] = list(chosen)

    Delta = sched.Delta
    data = []
    for sl in chosen:
        cd = cut_data(s, sl, sched.T, cap=cfg.cap, memo=memo)
        data.append(cd)
        knode = node.add(
            "kappa",
            slice=sl,
            weight=cd.weight,
            e_residual=cd.e_residual,
            g_residual=cd.g_residual,
        )
        knode.value = cd.kappa

    vL: list[float] = []
    vR: list[float] = []
    for idx, sl in enumerate(chosen):
        sp = split_at_cuts(data[idx])
        lnode = node.add("left", slice=sl, parent_width=length, child_width=sp.left.dims[axis])
        left_heavy = _within(K_heavy, 0, sl.hi)
        vL.append(a_recursive(sp.left, sched, left_heavy, D, base, eta - 1, cfg, lnode, memo))
        rnode = node.add("right", slice=sl, parent_width=length, child_width=sp.right.dims[axis])
        right_heavy = _within(K_heavy, sl.lo, length)
        vR.append(a_recursive(sp.right, sched, right_heavy, D, base, eta - 1, cfg, rnode, memo))
        lnode.value = vL[-1]
        rnode.value = vR[-1]

    single = [vL[i] * vR[i] for i in range(Delta)]
    double = {}
    phis = {}
    for i in range(Delta):
        for j in range(i + 1, Delta):
            phi = middle_between_cuts(data[i], data[j])
            phis[(i, j)] = phi
            mnode = node.add("middle", slices=(chosen[i], chosen[j]))
            vM = a_full(phi.middle, base, sched.eps, D - 1, cfg, mnode, memo)
            mnode.value = vM
            double[(i + 1, j + 1)] = vL[i] * vM * vR[j]

    multi = {}
    for i in range(Delta):
        for j in range(i + 2, Delta):
            for sigma in nonempty_subsets(range(i + 2, j + 1)):  # 1-based labels
                picked = _within([chosen[k - 1] for k in sigma], chosen[i].lo, chosen[j].hi)
                annotated = phis[(i, j)].with_insertions(picked, sched.T, cap=cfg.cap, memo=memo)
                snode = node.add("sigma_term", slices=(chosen[i], chosen[j]), sigma=sigma)
                val = a_full(annotated, base, errmodel.e3(sched.eps, Delta), D - 1, cfg, snode, memo)
                snode.value = val
                multi[(i + 1, j + 1, sigma)] = vL[i] * val * vR[j]

    kappas = [cd.kappa for cd in data]
    total = inclusion_exclusion_combine(single, double, multi, kappas, Delta)
    node.value = total
    return total, node


# ---------------------------------------------------------------------------
# trace conformance predictor
# ---------------------------------------------------------------------------


class _Geometry(NamedTuple):
    """What the estimator's rules read of a synthesis; the predictor walks them on it."""

    dims: tuple[int, ...]
    depth: int
    declared_axes: tuple[int, ...]


def expected_node_counts(
    dims: tuple[int, ...], d: int, D: int, sched: ParameterSchedule, delta: float
) -> dict:
    """Predicted per-kind trace node counts for an all-heavy run.

    Walks the estimator's rules on geometry alone: its leaf choice (`_leaf`),
    cut axis (`widest_axis`), slice tiling (`enumerate_slices`), slabs
    (`_slab`), region and cuts (`select_region_Z`) and the children's slices
    (`_within`), each read on a `_Geometry` in place of a synthesis, under
    `sched` at every level.  So it is exact whenever every enumerated slice
    is classified heavy (identity and near-identity corpora), and it raises
    SpacingError where such a run does.  Used to check runtime-predictor
    conformance against measured traces.
    """
    counts: Counter[str] = Counter()

    def resized(g, axis, width):
        return g._replace(dims=g.dims[:axis] + (width,) + g.dims[axis + 1:])

    def reduced(g, axis):
        return g._replace(declared_axes=tuple(a for a in g.declared_axes if a != axis))

    def full(g, D_, delta_):
        counts["a_full"] += 1
        leaf = _leaf(math.prod(g.dims), delta_, D_)
        if leaf is not None:
            counts[leaf] += 1
            return
        axis = widest_axis(g)
        if g.dims[axis] < sched.slice_width:
            full(reduced(g, axis), D_ - 1, delta_)
            return
        slices = enumerate_slices(g, axis, sched.slice_width, sched.max_gap)
        for sl in slices:
            counts["slice_weight"] += 1
            lo, hi = _slab(g, sl)
            full(reduced(resized(g, axis, hi - lo), axis), D_ - 1, errmodel.e1(delta_, sched.h))
        recurse(g, slices, D_, sched.eta)

    def recurse(g, heavy, D_, eta):
        counts["a_recursive"] += 1
        axis = heavy[0].axis
        length = g.dims[axis]
        if length < sched.w0 or eta < 1:
            full(reduced(g, axis), D_ - 1, sched.eps)
            return
        _, chosen = select_region_Z(g, sched, heavy)
        counts["kappa"] += sched.Delta
        for sl in chosen:
            counts["left"] += 1
            recurse(resized(g, axis, sl.hi), _within(heavy, 0, sl.hi), D_, eta - 1)
            counts["right"] += 1
            recurse(resized(g, axis, length - sl.lo), _within(heavy, sl.lo, length), D_, eta - 1)
        for i in range(sched.Delta):  # the middle of cuts i < j, once plain and once per sigma term
            for j in range(i + 1, sched.Delta):
                middle = resized(g, axis, chosen[j].hi - chosen[i].lo)
                counts["middle"] += 1
                full(middle, D_ - 1, sched.eps)
                for _sigma in nonempty_subsets(range(i + 2, j + 1)):
                    counts["sigma_term"] += 1
                    full(middle, D_ - 1, errmodel.e3(sched.eps, sched.Delta))

    full(_Geometry(tuple(dims), d, tuple(range(len(dims)))), D, delta)
    return dict(counts)
