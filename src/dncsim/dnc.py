"""Divide-and-conquer estimator.

`a_full` is the driver: it handles the error-parameter edge cases, enumerates
candidate slices along the widest declared axis, classifies heavy slices via
lower-dimensional weight estimates, and hands off to the recursive subroutine
`a_recursive`, which cuts the lattice at heavy slices inside a central region
and combines recursively-estimated sub-synthesis values by signed
inclusion-exclusion.

Every run can be instrumented with a TraceNode tree whose per-node child
counts are deterministic functions of the schedule and lattice geometry
(see expected_node_counts).

Each estimate solves each distinct recursive subproblem once.  On a chain
most of the ~4^eta calls of `a_recursive` repeat one that another call has
already solved: the cuts' annotations come from their band windows alone
(`synthesis.cut_data`), so equal pieces carry equal annotations to the bit.
`a_full` creates one table per estimate and passes it down; `a_recursive`
looks each call up before doing any work, keyed on the piece's lattice,
roles, gates (their qubits and the identity of their matrix objects, which
every piece shares with the root), the exact bytes of its annotations, its
heavy slices, eta, D and the schedule.  A hit returns the stored value and
attaches the stored trace subtree under the caller's node; that subtree is
shared and never changed, so the trace reads as if the call had run.
The same table holds the window evaluations of `synthesis.cut_data` (each
window's omega, W^dagger W or exact value, keyed on its
`synthesis.content_key`), so cuts of different pieces share the windows they
have in common.  The dense leaves of `a_full` (`brute_force`, and `base`
when it is None) are left out on purpose: tabling them as well cut a weak
`[128,1,1]` estimate's exact evaluations from 193 to 167 but bought no
measurable time (chain_scale `estimates_per_s` 31.0 vs 30.5 /s, medians of
six alternating 10 s benchmark pairs on a 2-core machine), while it would
keep every leaf piece alive until the estimate ends.  Nothing is kept from
one estimate to the next.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import errmodel, oracle
from .geomcircuit import Slice, cone_gates, enumerate_slices
from .synthesis import (
    CutCalculus,
    SplitError,
    Synthesis,
    content_key,
    cut_data,
    middle_between_cuts,
    split_at_cuts,
    _segment,
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
    a field (`check_overrides` rejects any other key).  The desk recursion depth
    grows with n, as the paper's does: eta = max(2, ceil(log2(n / w0))) with
    the final w0, so the recursion can go on halving until a piece is narrower
    than w0 (where it stops anyway); an explicit `eta` override wins.  `h`
    drives the heavy-slice thresholds 2^(log delta / h); `h_margin` is the
    allowed number of non-heavy slices (the paper couples both roles in one
    h(n)).
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
    profile: str

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
        return errmodel.ErrorModel(
            n=n,
            d=self.d,
            D=D,
            h=self.h,
            Delta=self.Delta,
            K=self.K,
            T=self.T,
            eta=self.eta,
            e_of_n=errmodel.default_e_of_n(self.delta, n),
            g_of_n=0.0,
        )


def check_overrides(overrides) -> None:
    """Raise ScheduleError unless every key of `overrides` names a ParameterSchedule field."""
    unknown = sorted(set(overrides) - {f.name for f in dataclasses.fields(ParameterSchedule)})
    if unknown:
        raise ScheduleError(f"unknown schedule override {', '.join(map(repr, unknown))}")


def schedule(n: int, d: int, D: int, delta: float, profile: str = "paper", **overrides) -> ParameterSchedule:
    """Derive the parameter schedule for an n-qubit, depth-d, D-dimensional run."""
    if n < 2 or d < 1 or D < 2 or delta <= 0:
        raise ScheduleError("require n >= 2, d >= 1, D >= 2, delta > 0")
    check_overrides(overrides)
    ln = math.log2(n)
    eps = delta * 2.0 ** (-10.0 * ln * math.log2(max(ln, 1.0)))
    if profile == "paper":
        h = math.ceil(ln**7)
        Delta = math.ceil(ln)
        fields = dict(
            delta=delta,
            eps=eps,
            h=h,
            h_margin=h,
            eta=math.ceil(ln / (D * math.log2(4.0 / 3.0))),
            Delta=Delta,
            K=math.ceil(ln**3),
            T=math.ceil(ln**3),
            w0=20 * d * (Delta + h + 2),
            z_width=10 * d * (Delta + h + 2),
            slice_width=10 * d,
            max_gap=10 * d,
            d=d,
            profile="paper",
        )
    elif profile == "desk":
        Delta = int(overrides.get("Delta", 2))
        slice_width = int(overrides.get("slice_width", 2 * d))
        max_gap = int(overrides.get("max_gap", 2 * d))
        # wide enough that Delta whole slices fit regardless of tiling alignment
        z_width = int(
            overrides.get("z_width", Delta * (slice_width + max_gap) + slice_width)
        )
        w0 = int(overrides.get("w0", z_width + slice_width + 1))
        if w0 < 1:
            raise ScheduleError("w0 must be >= 1")
        fields = dict(
            delta=delta,
            eps=eps,
            h=4,
            h_margin=1,
            # enough levels to halve n down to w0; the width check stops sooner
            eta=max(2, math.ceil(math.log2(n / w0))),
            Delta=Delta,
            K=2,
            T=2,
            w0=w0,
            z_width=z_width,
            slice_width=slice_width,
            max_gap=max_gap,
            d=d,
            profile="desk",
        )
    else:
        raise ScheduleError(f"unknown profile {profile!r}")
    fields.update(overrides)
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
    calculus: str = "exact-spectral"  # a CutCalculus mode; K and T come from the schedule
    profile: str = "desk"
    overrides: dict = field(default_factory=dict)
    cap: int = oracle.DEFAULT_CAP

    def __post_init__(self):
        CutCalculus(self.calculus)  # rejects an unknown mode before any work
        check_overrides(self.overrides)  # and an unknown override, even where no schedule is built


# ---------------------------------------------------------------------------
# structural helpers
# ---------------------------------------------------------------------------


def widest_axis(s: Synthesis) -> int:
    return min(s.declared_axes, key=lambda a: (-s.gamma.dims[a], a))


def dimension_reduce(s: Synthesis, axis: int | None = None) -> Synthesis:
    """Absorb one declared axis into the site structure (value unchanged).

    The circuit, registers, and annotations are untouched; only the declared
    dimensionality shrinks.
    """
    if axis is None:
        axis = widest_axis(s)
    if axis not in s.declared_axes:
        raise ValueError(f"axis {axis} is not a declared dimension")
    if len(s.declared_axes) < 2:
        raise ValueError("cannot reduce below one declared dimension")
    return replace(s, declared_axes=tuple(a for a in s.declared_axes if a != axis))


def slice_weight_synthesis(s: Synthesis, sl: Slice) -> Synthesis:
    """The slice-weight quantity tr <0_M| phi |0_M> as a slab-restricted synthesis.

    Only gates in the backward light cone of the slice matter, so the circuit
    is restricted to a slab |slice| + 2d wide around it; the slice is
    the M register, the rest of the slab is traced, and N is empty.
    """
    d = s.gamma.depth
    axis = sl.axis
    slab_lo = max(0, sl.lo - d)
    slab_hi = min(s.gamma.dims[axis], sl.hi + d)
    slice_sites = [q for q in s.gamma.sites() if sl.lo <= q[axis] < sl.hi]
    cone, reached = cone_gates(s.gamma, slice_sites, "backward")
    if any(q[axis] < slab_lo or q[axis] >= slab_hi for q in reached):
        raise AssertionError("backward cone of the slice escaped its slab")
    for op in s.cut_ops:
        lo, hi = op.extent(axis)
        if hi < slab_lo or lo >= slab_hi:
            if op.kind == "sandwich" or op.kind == "insertion":
                raise SplitError("slice weight undefined with off-slab sandwich operators")
        elif lo < slab_lo or hi >= slab_hi:
            raise SplitError(f"cut operator on {op.qubits} straddles the slab")
    in_slice = lambda q: "M" if sl.lo <= q[axis] < sl.hi else "L"
    return _segment(s, axis, slab_lo, slab_hi, cone, s.cut_ops, in_slice)


def select_region_Z(s: Synthesis, sched: ParameterSchedule, K_heavy: list[Slice]):
    """Central sub-hyper-cube Z and the Delta left-most heavy slices inside it."""
    axis = K_heavy[0].axis
    length = s.gamma.dims[axis]
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


def inclusion_exclusion_combine(single, double, multi, kappas, K: int, Delta: int) -> float:
    """Signed combination of sub-synthesis products.

    single[i-1]        product for cut i                    (i = 1..Delta)
    double[(i, j)]     product for cuts i < j
    multi[(i, j, sigma)]  product for cuts i, j >= i+2 and nonempty sigma,
                       sigma a tuple of indices in {i+1, .., j-1}
    Coefficients 1/kappa_i^(4K+1) and 1/(kappa_i kappa_j)^(4K+1); sigma terms
    carry sign (-1)^(|sigma|+1).  Raises ScheduleError when a kappa^(4K+1)
    underflows to 0 or a term is not finite (large K at small kappa).
    """
    if len(single) != Delta or len(kappas) != Delta:
        raise KeyError("missing sub-value keys: need one single product and kappa per cut")
    p = 4 * K + 1

    def scaled(value, kap):
        try:
            norm = float(kap) ** p
        except OverflowError:
            norm = math.inf
        term = value / norm if norm > 0.0 else math.nan
        if not math.isfinite(term):
            raise ScheduleError(
                f"inclusion-exclusion term out of floating-point range: kappa = "
                f"{float(kap):.6g}, K = {K}, kappa^(4K+1) = {norm:.6g}, term = {term}"
            )
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
            total -= scaled(double[(i, j)], kappas[i - 1] * kappas[j - 1])
    for i in range(1, Delta + 1):
        for j in range(i + 2, Delta + 1):
            for sigma in nonempty_subsets(range(i + 1, j)):
                if (i, j, sigma) not in multi:
                    raise KeyError(f"missing sub-value keys: multi term {(i, j, sigma)}")
                sign = (-1.0) ** (len(sigma) + 1)
                total += sign * scaled(multi[(i, j, sigma)], kappas[i - 1] * kappas[j - 1])
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


def _brute_cutoff(n: int) -> float:
    return float(n) ** -(math.log2(n) ** 2)


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


def _trace_child(trace: TraceNode | None, kind: str, **meta) -> TraceNode:
    """A new child of `trace`, or a detached node when the caller keeps no trace."""
    return trace.add(kind, **meta) if trace is not None else TraceNode(kind, meta)


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
    (and `base` called for its leaves) once per estimate.  Above the leaves,
    a D that exceeds the declared dimensions of `s` by more than one raises
    ScheduleError before any evaluation.
    """
    cfg = config or DncConfig()
    memo = {} if memo is None else memo
    n = s.gamma.n_qubits
    node = _trace_child(trace, "a_full", dims=s.declared_dims, D=D, delta=delta)

    if delta <= _brute_cutoff(n):
        val = oracle.synthesis_value_exact(s, cap=cfg.cap)
        node.add("brute_force").value = val
    elif delta >= 0.5:
        val = 0.5
        node.add("return_half").value = val
    elif D == 2:
        val = oracle.synthesis_value_exact(s, cap=cfg.cap) if base is None else base(s, delta)
        node.add("base").value = val
    else:
        val = _scan_and_recurse(s, base, delta, D, cfg, node, memo)
    node.value = val
    return val


def _scan_and_recurse(s, base, delta, D, cfg, node, memo) -> float:
    """`a_full` above the leaves: weigh the slices, then recurse at the heavy ones."""
    if D > len(s.declared_axes) + 1:  # each level below absorbs one declared axis
        raise ScheduleError(
            f"D = {D} needs at least {D - 1} declared dimensions, the synthesis has "
            f"{len(s.declared_axes)} (dims {s.declared_dims})")
    sched = schedule(s.gamma.n_qubits, s.gamma.depth, D, delta, cfg.profile, **cfg.overrides)
    axis = widest_axis(s)
    slices = enumerate_slices(s.gamma, axis, sched.slice_width, sched.max_gap)
    if not slices:
        return a_full(dimension_reduce(s, axis), base, delta, D - 1, cfg, node, memo)

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


def _call_key(s: Synthesis, sched: ParameterSchedule, K_heavy: list[Slice], D: int, eta: int) -> tuple:
    """Everything an `a_recursive` call depends on besides `base` and the
    config, which one estimate shares: equal keys mean equal calls.

    The piece is keyed on `synthesis.content_key` (gate matrices by identity,
    so the table holds each keyed synthesis), the call on its heavy slices,
    eta, D and the schedule.
    """
    return content_key(s) + (tuple(K_heavy), eta, D, sched)


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
    module docstring); a call without one starts a new table.
    """
    cfg = config or DncConfig()
    if eta is None:
        eta = sched.eta
    if not K_heavy:
        raise SpacingError("K_heavy is empty")
    memo = {} if memo is None else memo
    key = _call_key(s, sched, K_heavy, D, eta)
    if key in memo:
        val, node, _ = memo[key]
        if trace is not None:
            trace.children.append(node)  # shared, and never changed once stored
        return val
    axis = K_heavy[0].axis
    length = s.gamma.dims[axis]
    node = _trace_child(trace, "a_recursive", width=length, eta=eta, D=D, dims=s.declared_dims)

    if length < sched.w0 or eta < 1:
        reduced = dimension_reduce(s, axis)
        val = a_full(reduced, base, sched.eps, D - 1, cfg, node, memo)
        node.meta["stopped"] = True
        node.value = val
        memo[key] = (val, node, s)
        return val

    region, chosen = select_region_Z(s, sched, K_heavy)
    node.meta["region_Z"] = region
    node.meta["chosen"] = [c for c in chosen]

    calc = CutCalculus(cfg.calculus, K=sched.K, T=sched.T)
    Delta = sched.Delta
    data = []
    for sl in chosen:
        cd = cut_data(s, sl, calc, cap=cfg.cap, memo=memo)
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
        lnode = node.add("left", slice=sl, parent_width=length, child_width=sp.left.gamma.dims[axis])
        left_heavy = _within(K_heavy, 0, sl.hi)
        vL.append(a_recursive(sp.left, sched, left_heavy, D, base, eta - 1, cfg, lnode, memo))
        rnode = node.add("right", slice=sl, parent_width=length, child_width=sp.right.gamma.dims[axis])
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
                annotated = phis[(i, j)].with_insertions(picked, calc, cap=cfg.cap)
                snode = node.add("sigma_term", slices=(chosen[i], chosen[j]), sigma=sigma)
                val = a_full(annotated, base, errmodel.e3(sched.eps, Delta), D - 1, cfg, snode, memo)
                snode.value = val
                multi[(i + 1, j + 1, sigma)] = vL[i] * val * vR[j]

    kappas = [cd.kappa for cd in data]
    total = inclusion_exclusion_combine(single, double, multi, kappas, sched.K, Delta)
    node.value = total
    memo[key] = (total, node, s)
    return total


# ---------------------------------------------------------------------------
# trace conformance predictor
# ---------------------------------------------------------------------------


def expected_node_counts(
    dims: tuple[int, ...], d: int, D: int, sched: ParameterSchedule, delta: float
) -> dict:
    """Predicted per-kind trace node counts for an all-heavy run.

    Mirrors the driver/recursion control flow on interval geometry alone, so
    it is exact whenever every enumerated slice is classified heavy (identity
    and near-identity corpora).  Used to check runtime-predictor conformance
    against measured traces.
    """
    counts: dict[str, int] = {}

    def bump(kind, amount=1):
        counts[kind] = counts.get(kind, 0) + amount

    def slices_along(axis, length):
        out = []
        lo = 0
        while lo + sched.slice_width <= length:
            out.append(Slice(axis, lo, lo + sched.slice_width))
            lo += sched.slice_width + sched.max_gap
        return out

    def full(dims_, declared, D_, delta_):
        bump("a_full")
        n = int(np.prod(dims_))
        if delta_ <= _brute_cutoff(n):
            bump("brute_force")
            return
        if delta_ >= 0.5:
            bump("return_half")
            return
        if D_ == 2:
            bump("base")
            return
        axis = min(declared, key=lambda a: (-dims_[a], a))
        slc = slices_along(axis, dims_[axis])
        if not slc:
            full(dims_, tuple(a for a in declared if a != axis), D_ - 1, delta_)
            return
        reduced = tuple(a for a in declared if a != axis)
        for sl in slc:
            bump("slice_weight")
            slab_lo = max(0, sl.lo - d)
            slab_hi = min(dims_[axis], sl.hi + d)
            slab_dims = tuple(
                slab_hi - slab_lo if k == axis else w for k, w in enumerate(dims_)
            )
            full(slab_dims, reduced, D_ - 1, errmodel.e1(delta_, sched.h))
        recurse(dims_, declared, axis, slc, D_, sched.eta)

    def recurse(dims_, declared, axis, heavy, D_, eta):
        bump("a_recursive")
        length = dims_[axis]
        if length < sched.w0 or eta < 1:
            full(dims_, tuple(a for a in declared if a != axis), D_ - 1, sched.eps)
            return
        z = min(sched.z_width, length)
        zlo = (length - z) // 2
        zhi = zlo + z
        inside = [sl for sl in heavy if sl.lo >= zlo and sl.hi <= zhi]
        if len(inside) < sched.Delta:
            raise SpacingError("conformance predictor: too few heavy slices in Z")
        chosen = inside[: sched.Delta]
        bump("kappa", sched.Delta)
        for sl in chosen:  # each child gets the heavy slices inside it, as a_recursive does
            bump("left")
            left_dims = tuple(sl.hi if k == axis else w for k, w in enumerate(dims_))
            recurse(left_dims, declared, axis, _within(heavy, 0, sl.hi), D_, eta - 1)
            bump("right")
            right_dims = tuple(length - sl.lo if k == axis else w for k, w in enumerate(dims_))
            recurse(right_dims, declared, axis, _within(heavy, sl.lo, length), D_, eta - 1)
        for i in range(sched.Delta):
            for j in range(i + 1, sched.Delta):
                bump("middle")
                mdims = tuple(
                    chosen[j].hi - chosen[i].lo if k == axis else w for k, w in enumerate(dims_)
                )
                full(mdims, declared, D_ - 1, sched.eps)
        for i in range(sched.Delta):
            for j in range(i + 2, sched.Delta):
                for _sigma in nonempty_subsets(range(i + 2, j + 1)):
                    bump("sigma_term")
                    mdims = tuple(
                        chosen[j].hi - chosen[i].lo if k == axis else w
                        for k, w in enumerate(dims_)
                    )
                    full(mdims, declared, D_ - 1, errmodel.e3(sched.eps, sched.Delta))

    full(tuple(dims), tuple(range(len(dims))), D, delta)
    return counts
