"""Syntheses, cut-state machinery, and sub-synthesis construction.

A synthesis is a circuit together with three register roles:

    L  traced out,
    M  post-selected to |0>,
    N  output (the evaluated quantity is <0_N| phi |0_N>).

Children produced by cutting carry small *cut-operator annotations* at their
cut-adjacent bands: an input state on the band for the right-hand child, a
positive sandwich operator on the band for the left-hand child, and explicit
projector insertions for the middle pieces of multi-cut terms.  Annotation
operators are always confined to a band as wide as the circuit depth, which
is what keeps the recursion compositional.

A synthesis is a box of a root circuit: the root coordinates of its origin,
its dims, the ids of its kept gates (positions in the root's `gate_table`),
one role byte per site in row-major order, and its annotations in root
coordinates.  It shares the root's Gate objects.  A synthesis built from
its fields is its own root: the constructor fills the box with all of the
circuit's gates and role bytes that must partition its sites.  Every
sub-synthesis (a child of a cut, a middle piece, a slab of the slice-weight
scan, a window of `cut_data`) is carved from its parent's box by one
builder, `_segment`.  Carving composes boxes, filters gate ids and slices
role bytes; it builds no gate, moves no coordinate and checks no partition,
and the callers' role rules are site ranges.  Everything in the package
reads the box, whichever way it was filled: the cut machinery, the keys of
the estimate's table (`content_key`, in the piece's own frame) and the sweep
(`oracle.synthesis_state`, in root coordinates: a sweep is translation
invariant, so a piece evaluates exactly as its own-frame copy would).  The
own-frame fields (`gamma`, `L`, `M`, `N`, `cut_ops`, starting at 0) are
derived on first read, for the tests, the CLI and tracers.

Cut-state structure exploited throughout: for a slice of width >= 2d the
conditioned front state factors through the band,

    rho_front = W omega W^dagger,

with W the band-to-front contraction built from the gates in the forward
light cone of the front region and omega the band state conditioned on zeros
behind the cut.  All spectral quantities (kappa, projectors, residuals) are
computed from the band-sized Gram matrix G = sqrt(omega) W^dagger W
sqrt(omega) = U diag(mu) U^dagger, so nothing large is ever diagonalized.

Every cut applies one operator to its cut state: the projector Pi onto the
eigenvectors of G whose eigenvalues `cut_data` keeps (those above TAU).
Where the cut state is pure, as every heavy cut the estimator has been seen
to reach is to rounding, Pi is the paper's normalized power (rho/kappa)^{2K}
for every K.  The left child's sandwich, the right child's input state and
an insertion's front-side projector are all built from Pi, and the signed
combination divides a term by the kappa of each of its cuts once.

`cut_data` also partitions the cut once (`causal_split`: its gates, its
annotations and its band, whose lower edge only it derives from the depth),
and its CutData is the one record of the cut: every piece reads it.
`split_at_cuts(data)` gives the left and right children,
`middle_between_cuts(data_i, data_j)` the middle between two cuts of one
synthesis, and `CutData.insertion` the annotation of a sigma term.

Nothing large is simulated either.  omega and W^dagger W each depend only on
the gates in one backward light cone (of the band, the conditioned sites and
the annotations).  The sites a cone reaches fall into windows, maximal runs
along the cut axis with the full cross-section, that evolve independently:
the window holding the band is simulated densely, and every other window
contributes a scalar factor, its exact synthesis value.  So the cost of a cut
depends on the depth and the cross-section, not on the length of the lattice.
The factors are carried beside the cut data, not multiplied into it: omega,
W^dagger W, kappa and the children's annotations come from the band windows
alone and stay O(1) however long the lattice, and the factors cancel in
every term of the signed combination.  Equal subproblems therefore get
annotations equal to the bit, which the estimator's table of work relies on.
Given that table, `cut_data` looks every window up in it before sweeping:
the band windows' omega and W^dagger W and every other window's value are
keyed on the window's content (`content_key`), so a window that recurs
within one estimate, in a repeated cut or further along a uniform lattice,
is swept once.
The front matrix W sqrt(omega), dense on all front sites, is built only on
first use, when a front-side projector is asked for (`CutData.amat`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import sub

import numpy as np

from . import oracle
from .geomcircuit import Coord, CutError, Gate, LatticeCircuit, Slice, cone_gates

# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

_ALL_L = bytes.maketrans(b"MN", b"LL")  # recasts of role bytes: every site traced,
_ONLY_M = bytes.maketrans(b"N", b"L")  # or every site but the post-selected ones


def _moved(qs, origin: Coord) -> tuple[Coord, ...]:
    """The root coordinates `qs` in the frame that starts at `origin`."""
    return tuple([tuple(map(sub, q, origin)) for q in qs])


@dataclass(frozen=True, eq=False)
class CutOp:
    """Operator annotation attached to a synthesis.

    kinds:
      input_state  factors Y (2^k x r): initial state Y Y^dagger of `qubits`,
                   loaded as its purification sum_j y_j (x) |j> on a batch axis
      sandwich     matrix (or low-rank factors) applied after the M projection
      insertion    |0><0| on `project_zero`, then the low-rank projector on `qubits`
    """

    kind: str
    qubits: tuple[Coord, ...]
    matrix: np.ndarray | None = None
    factors: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    project_zero: tuple[Coord, ...] = ()

    def extent(self, axis: int) -> tuple[int, int]:
        """Lowest and highest coordinate along `axis` of the sites it acts on."""
        xs = [q[axis] for q in self.qubits + self.project_zero]
        return min(xs), max(xs)


class Synthesis:
    """Register-tagged circuit; evaluates to <0_N| phi |0_N>.

    Its state is a box of its root circuit (see the module docstring):
    `root`, `origin`, `dims`, `ids`, `roles` and `ops`, in root coordinates,
    and `declared_axes`, the coordinate positions that count as lattice
    dimensions (dimension reduction shrinks it).  Every reader reads the box;
    the sweep's `registers` and the own-frame fields `gamma`, `L`, `M`, `N`
    and `cut_ops` (in the frame where the lattice starts at (0,..,0)) are
    derived from it on first read.  Assigning an attribute raises.

    `Synthesis(gamma, L, M, N, declared_axes, cut_ops=())` fills the box of
    a root: all of gamma's gates, and role bytes that must partition its
    sites.  It records (M, N) as given as the registers, so a root is swept
    without a pass over its sites.  A piece gets its box from `_box`.
    """

    def __init__(self, gamma: LatticeCircuit, L, M, N, declared_axes, cut_ops=()):
        index = {q: i for i, q in enumerate(gamma.sites())}
        roles = bytearray(len(index))
        for role, qs in zip(b"LMN", (L, M, N)):
            for q in qs:
                i = index.get(q)
                if i is None:
                    raise ValueError(f"L, M, N must partition the lattice sites: {q} is not a site")
                if roles[i]:
                    raise ValueError(f"L, M, N must be disjoint and list each site once: {q} is listed twice")
                roles[i] = role
        if 0 in roles:
            raise ValueError("L, M, N must partition the lattice sites: a site has no role")
        axes = tuple(declared_axes)
        if len(set(axes)) != len(axes) or not all(0 <= a < len(gamma.dims) for a in axes):
            raise ValueError(f"declared_axes {axes} must be distinct axes of the lattice {gamma.dims}")
        self.__dict__.update(root=gamma, origin=(0,) * len(gamma.dims), dims=gamma.dims,
                             ids=tuple(range(len(gamma.gate_table[0]))), roles=bytes(roles),
                             ops=tuple(cut_ops), declared_axes=axes, registers=(tuple(M), tuple(N)))

    def __setattr__(self, name, value):
        raise AttributeError(f"a synthesis is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a synthesis is immutable: cannot delete {name!r}")

    @property
    def declared_dims(self) -> tuple[int, ...]:
        return tuple(self.dims[a] for a in self.declared_axes)

    @property
    def depth(self) -> int:
        return self.root.depth

    @property
    def n_qubits(self) -> int:
        return math.prod(self.dims)

    def pairs(self) -> list:
        """(matrix, qubits) of its gates in layer order, in root coordinates."""
        gates = self.root.gate_table[0]
        return [(gates[i].matrix, gates[i].qubits) for i in self.ids]

    @cached_property
    def registers(self) -> tuple[tuple[Coord, ...], tuple[Coord, ...]]:
        """(M, N) in root coordinates, as the sweep reads them."""
        return self.root_sites("M"), self.root_sites("N")

    def root_sites(self, role: str | None = None, axis: int = 0, lo: int = 0, hi: int | None = None):
        """Root coordinates of its sites with lo <= x[axis] < hi (in its own
        frame; all of them by default), in row-major order; with `role`, only
        the sites of that role."""
        dims, o = self.dims, self.origin
        hi = dims[axis] if hi is None else hi
        if role is None:
            roles = None
        else:
            roles = self.roles if lo <= 0 and hi >= dims[axis] else _carve_roles(self.roles, dims, axis, lo, hi)
            if role.encode() not in roles:
                return ()
        ranges = [range(a, a + w) for a, w in zip(o, dims)]
        ranges[axis] = range(o[axis] + max(lo, 0), o[axis] + min(hi, dims[axis]))
        sites = itertools.product(*ranges)
        if roles is None:
            return tuple(sites)
        r = ord(role)
        return tuple([q for q, x in zip(sites, roles) if x == r])

    @cached_property
    def gamma(self) -> LatticeCircuit:
        """The circuit of its kept gates, in its own frame."""
        root, o = self.root, self.origin
        gates, layer = root.gate_table
        if len(self.ids) == len(gates) and self.dims == root.dims:  # the whole root
            return root
        layers = [[] for _ in root.layers]
        for i in self.ids:
            g = gates[i]
            layers[layer[i]].append(Gate(g.matrix, _moved(g.qubits, o), name=g.name) if any(o) else g)
        return LatticeCircuit(self.dims, root.depth, tuple(map(tuple, layers)))

    @cached_property
    def L(self) -> tuple[Coord, ...]:
        return _moved(self.root_sites("L"), self.origin)

    @cached_property
    def M(self) -> tuple[Coord, ...]:
        return _moved(self.root_sites("M"), self.origin)

    @cached_property
    def N(self) -> tuple[Coord, ...]:
        return _moved(self.root_sites("N"), self.origin)

    @cached_property
    def cut_ops(self) -> tuple[CutOp, ...]:
        """The annotations, in its own frame."""
        o = self.origin
        if not any(o):
            return self.ops
        return tuple(CutOp(op.kind, _moved(op.qubits, o), op.matrix, op.factors, op.coeffs,
                           _moved(op.project_zero, o)) for op in self.ops)


def _box(root: LatticeCircuit, origin, dims, ids, roles, ops, declared_axes) -> Synthesis:
    """The box (origin, dims, ids, roles, ops) of `root`, as a synthesis."""
    s = object.__new__(Synthesis)
    s.__dict__.update(root=root, origin=origin, dims=dims, ids=ids, roles=roles, ops=ops,
                      declared_axes=declared_axes)
    return s


def _recast(s: Synthesis, roles=None, ops=None, declared_axes=None) -> Synthesis:
    """The box of `s` with other roles, annotations or declared axes."""
    return _box(s.root, s.origin, s.dims, s.ids, s.roles if roles is None else roles,
                s.ops if ops is None else ops, s.declared_axes if declared_axes is None else declared_axes)


def _runs(dims, axis: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Row-major positions of the sites with lo <= x[axis] < hi, as [start, stop) runs."""
    inner = math.prod(dims[axis + 1:])
    if not axis:
        return [(lo * inner, hi * inner)]
    block = dims[axis] * inner
    return [(b + lo * inner, b + hi * inner) for b in range(0, math.prod(dims), block)]


def _carve_roles(roles: bytes, dims, axis: int, lo: int, hi: int) -> bytes:
    """The role bytes of the sites with lo <= x[axis] < hi, in row-major order."""
    lo, hi = max(lo, 0), min(hi, dims[axis])
    return b"".join(roles[a:b] for a, b in _runs(dims, axis, lo, hi)) if lo < hi else b""


def _mark(roles: bytes, dims, axis: int, lo: int, hi: int, role: bytes) -> bytes:
    """`roles` with the sites lo <= x[axis] < hi set to `role`."""
    lo, hi = max(lo, 0), min(hi, dims[axis])
    if lo >= hi:
        return roles
    out = bytearray(roles)
    for a, b in _runs(dims, axis, lo, hi):
        out[a:b] = role * (b - a)
    return bytes(out)


def synthesis_of_circuit(circ: LatticeCircuit) -> Synthesis:
    """Trivial synthesis: L = M = empty, N = all qubits."""
    return Synthesis(gamma=circ, L=(), M=(), N=circ.sites(), declared_axes=tuple(range(len(circ.dims))))


TAU = 1e-6  # a cut's projector keeps the cut state's eigenvalues above this (true scale)


class SplitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cut-state engine
# ---------------------------------------------------------------------------


def content_key(s: Synthesis) -> tuple:
    """Everything the evaluation of `s` depends on: equal keys, equal values.

    It reads the box of `s` in its own frame, so it is translation invariant:
    the dims, depth, declared axes and role bytes; each kept gate's layer,
    matrix identity (cheap, and exact while the object lives, so a table
    keyed on this holds the synthesis too) and own-frame qubits; and each
    annotation's kind, own-frame sites and the exact bytes of its arrays.
    """
    o = s.origin
    gates, layer = s.root.gate_table
    gate_keys = tuple([(layer[i], id(gates[i].matrix), _moved(gates[i].qubits, o)) for i in s.ids])
    ops = tuple(
        (op.kind, _moved(op.qubits, o), _moved(op.project_zero, o))
        + tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in (op.matrix, op.factors, op.coeffs))
        for op in s.ops
    )
    return s.dims, s.depth, s.declared_axes, s.roles, gate_keys, ops


def _tabled(memo: dict | None, tag, view: Synthesis, compute):
    """`compute()` of the piece `view`, looked up in (and stored to) the
    estimate's table `memo` under (tag, content_key(view)): the one reader and
    writer of the table, for `cut_data`'s windows and `dnc.a_recursive`'s calls.

    The entry (out, view) holds `view`, whose matrix ids its key names; a
    stored array is made read-only, since every later hit shares it.
    """
    if memo is None:
        return compute()
    key = (tag, content_key(view))
    if key in memo:
        return memo[key][0]
    out = compute()
    if isinstance(out, np.ndarray):
        out.setflags(write=False)
    memo[key] = (out, view)
    return out


def _band_windows(s: Synthesis, axis: int, band, gate_ids, slab, seed, carve, cap: int, read, memo):
    """The backward light cone of the slab [lo, hi) of `s` along `axis` and
    the sites `seed` through the gates `gate_ids`, swept window by window.

    The sites the cone reaches are grouped into maximal runs of consecutive
    coordinates along `axis`; a window is one run with the full cross-section,
    together with the cone gates inside it (a gate spans at most two adjacent
    coordinates, so none links two windows), carved by `carve(lo, hi, ids)`.
    The window holding the band gives `read(window, band, cap)`; every other
    window only its exact value.  Returns (that result, the product of those
    values).  `band` and `seed` are in root coordinates, as the sweeps are.

    With the estimate's table `memo`, both are looked up first, keyed on the
    window's `content_key` (and on `read` and the band in the window's frame,
    or on "value"), so a window evaluated earlier in the estimate is not
    swept again.
    """
    o = s.origin[axis]
    lo, hi = slab
    ids, reached = cone_gates(s.root, seed, "backward", among=gate_ids, slab=(axis, o + lo, o + hi))
    runs: list[list[int]] = []
    for x in sorted({q[axis] - o for q in reached}.union(range(lo, hi))):
        if runs and x == runs[-1][1]:
            runs[-1][1] = x + 1
        else:
            runs.append([x, x + 1])
    gates = s.root.gate_table[0]
    out, scale = None, 1.0
    for lo, hi in runs:
        inside = tuple(i for i in ids if o + lo <= gates[i].qubits[0][axis] < o + hi)
        view = carve(lo, hi, inside)
        if o + lo <= band[0][axis] < o + hi:
            local = _moved(band, view.origin)
            out = _tabled(memo, (read, local), view, lambda: read(view, band, cap))
        else:
            scale *= _tabled(memo, "value", view, lambda: oracle.synthesis_value_exact(view, cap=cap))
    return out, scale


def _segment(s: Synthesis, axis: int, lo: int, hi: int, ids, ops=(), recast=None, marks=()) -> Synthesis:
    """Sites [lo, hi) of `s` along `axis` as a synthesis of their own: a box
    of the root of `s`, whose own frame starts at 0.

    It keeps the gates `ids` (root gate ids in layer order) and those
    annotations of `ops` that lie inside.  Its roles are those of `s`,
    translated by the table `recast` if one is given (`_ALL_L`, `_ONLY_M`),
    then set to r on the sites a <= x[axis] < b for each (a, b, r) of `marks`
    (a and b in the frame of s).  Every sub-synthesis is carved here: the
    children of a cut, the middle pieces, the slabs of the slice-weight scan
    and the windows of `cut_data`.

    Carving composes the box of `s` with [lo, hi): it builds no gate, moves
    no coordinate and visits no site, so it costs the annotations and the
    role bytes of the piece.
    """
    o = s.origin[axis]
    origin = s.origin[:axis] + (o + lo,) + s.origin[axis + 1:]
    dims = s.dims[:axis] + (hi - lo,) + s.dims[axis + 1:]
    roles = _carve_roles(s.roles, s.dims, axis, lo, hi)
    if recast is not None:
        roles = roles.translate(recast)
    for a, b, r in marks:
        roles = _mark(roles, dims, axis, a - lo, b - lo, r)
    kept = []
    for op in ops:
        low, high = op.extent(axis)
        if o + lo <= low and high < o + hi:
            kept.append(op)
    return _box(s.root, origin, dims, tuple(ids), roles, tuple(kept), s.declared_axes)


def _front_columns(s: Synthesis, band, cap: int) -> np.ndarray:
    """The contraction W of `s` from `band` (root coordinates) to its other sites.

    Column x is <0_band| S V |x_band, 0_rest> with V the gates of s and S its
    sandwich annotations; shape (2^(n - |band|), 2^|band|), rows in site order.
    One operator sweep: `oracle.synthesis_state` with the band as the N
    register, each band qubit paired with its position as the label of its
    input axis, and the rest as L.  A band qubit a sandwich touches stays
    live through the N projection and is read at 0 here.
    """
    band_set = set(band)
    sites = s.root_sites()
    rest = [q for q in sites if q not in band_set]
    view = _recast(s, roles=bytes(b"N"[0] if q in band_set else b"L"[0] for q in sites))
    t, live = oracle.synthesis_state(view, cap, pairs={q: x for x, q in enumerate(band)})
    t, live = oracle._open(t, live, rest, cap)
    t = t[tuple(0 if q in band_set else slice(None) for q in live)]  # band outputs on zero
    live = [q for q in live if q not in band_set]
    return t.transpose([live.index(q) for q in rest + list(range(len(band)))]).reshape(2 ** len(rest), -1)


@dataclass(frozen=True, eq=False)
class CutData:
    """Everything the algorithms need about one cut of one synthesis.

    omega and W^dagger W are taken from the band windows alone (see
    `cut_data`): the true ones are `omega_scale` omega and `front_scale`
    W^dagger W, the two scales being the products of the exact values of
    every other window on each side.  So the Gram U diag(mu) U^dagger
    (U = `gram_vectors`), kappa, and the operators below are free of those
    scales; the cut state's true spectrum is omega_scale front_scale mu, and
    `weight`, `e_residual`, `g_residual` and the choice of `kept` are at that
    true scale.  The cut operator is the projector onto the `kept`
    eigenvectors, and all three of its forms are sums over them:

        left_op      (W^dag W sqrt(omega)) U_kept diag(1/mu) U_kept^dag (sqrt(omega) W^dag W)
        right_input  sqrt(omega) U_kept U_kept^dag sqrt(omega)
        front side   sum_kept a_j a_j^dag,  a_j = W sqrt(omega) u_j / sqrt(front_scale mu_j)

    with omega, W^dagger W and mu those of the band windows, and W on the
    front at true scale (`amat`).  The projector is scale free, so the true
    left_op and right_input carry just front_scale and omega_scale, which
    cancel against the one on kappa in every term of the signed combination.
    The children read them as annotations built once per cut: `sandwich`,
    the Hermitian root of left_op, and `input_state`, whose factors Y
    (right_input = Y Y^dagger, from one eigendecomposition) the sweep loads
    as a purification on a batch axis.

    It is also the one record of the cut: the synthesis cut (`source`), the
    partition `causal_split` made (the band's lower edge `band_lo` and its
    sites `band`, the gates `left_ids` and `cone_ids`, the annotations
    `left_ops` and `right_ops`) and the `cap`.  The pieces of the cut
    (`split_at_cuts`, `middle_between_cuts`) and its front-side operators
    (`amat`, `insertion`) are built from this record, so a cut is
    partitioned, and its band placed, once.  Like the sweeps, the record is
    in the root coordinates of source: its sites (`band`, `front_sites`),
    the annotations it builds, and its gate ids, which name the root's
    gates; `band_lo` alone is in the frame of source.
    """

    source: Synthesis
    slice_: Slice
    band_lo: int  # the band's lower edge along the slice's axis, in the frame of source
    band: tuple[Coord, ...]  # in the root coordinates of source, as every site here
    weight: float  # trace of the cut state
    kappa: float  # of the band windows' spectrum mu
    eigvals: np.ndarray  # mu: the band windows' spectrum of the cut state (descending)
    kept: np.ndarray  # boolean mask of true eigenvalues above TAU
    e_residual: float  # 1 - weight (slice residual)
    g_residual: float  # spectral mass dropped by the projector
    left_op: np.ndarray  # band PSD operator for the left child (pre-sqrt)
    right_input: np.ndarray  # band PSD input state for the right child
    gram_vectors: np.ndarray  # eigenvectors of the band Gram (columns)
    m_omega: np.ndarray  # sqrt(omega), omega the band window's state
    omega_scale: float  # exact values of the omega side's other windows, multiplied
    front_scale: float  # exact values of the W^dagger W side's other windows, multiplied
    left_ids: tuple  # root gate ids behind the cut, in layer order
    cone_ids: tuple  # root gate ids of the forward light cone of the front
    left_ops: tuple[CutOp, ...]  # annotations of source behind the cut
    right_ops: tuple[CutOp, ...]  # annotations of source from the band on
    cap: int  # the cap cut_data ran under, which `amat` keeps

    @cached_property
    def front_sites(self) -> tuple[Coord, ...]:
        """The sites of source from the slice's upper edge on."""
        sl = self.slice_
        return self.source.root_sites(axis=sl.axis, lo=sl.hi)

    @cached_property
    def amat(self) -> np.ndarray:
        """W sqrt(omega) on the front sites; dense on the front, so built on first use."""
        s, axis = self.source, self.slice_.axis
        sandwiches = [op for op in self.right_ops if op.kind == "sandwich"]
        view = _segment(s, axis, self.band_lo, s.dims[axis], self.cone_ids, sandwiches, _ALL_L)
        return _front_columns(view, self.band, self.cap) @ self.m_omega

    @cached_property
    def sandwich(self) -> CutOp:
        """The left-hand side's cut operator sqrt(left_op), on the band."""
        return CutOp(kind="sandwich", qubits=self.band, matrix=_psd_sqrt(self.left_op))

    @cached_property
    def input_state(self) -> CutOp:
        """The right-hand side's input state on the band, as its purification:
        factors Y = V sqrt(w) from the eigensystem of `right_input` = Y Y^dagger."""
        w, v = np.linalg.eigh(self.right_input)
        return CutOp(kind="input_state", qubits=self.band, factors=v * np.sqrt(np.clip(w, 0.0, None)))

    @cached_property
    def insertion(self) -> CutOp:
        """|0><0| on the slice, then the front-side projector (coeffs all 1)."""
        factors = self.projector_factors()
        sl = self.slice_
        return CutOp(kind="insertion", qubits=self.front_sites, factors=factors,
                     coeffs=np.ones(factors.shape[1]),
                     project_zero=self.source.root_sites(axis=sl.axis, lo=sl.lo, hi=sl.hi))

    def projector_factors(self) -> np.ndarray:
        """The front-side projector's range: the kept eigenvectors of the cut
        state, as orthonormal columns."""
        norms = np.sqrt(self.front_scale * self.eigvals[self.kept])
        return self.amat @ self.gram_vectors[:, self.kept] / norms


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def kappa_from_spectrum(eigvals, T: int) -> float:
    """(sum_j mu_j^{2T})^{1/(2T)} -- the normalization scale of a cut state.

    Computed as mu_max (sum_j (mu_j/mu_max)^{2T})^{1/(2T)}, so that it stays
    in range for large T and tiny spectra.
    """
    mu = np.clip(np.asarray(eigvals, dtype=float), 0.0, None)
    if T < 1:
        raise ValueError("T must be >= 1")
    top = float(mu.max(initial=0.0))
    if top <= 0.0:
        raise CutError("non-heavy slice: cut state has zero trace")
    return top * float(np.sum((mu / top) ** (2 * T))) ** (1.0 / (2 * T))


def causal_split(s: Synthesis, sl: Slice):
    """The one partition of a cut at a slice: (band_lo, left gate ids, cone
    gate ids, left annotations, right annotations, band sites).

    The band is the last d sites of the slice, [band_lo, sl.hi) with band_lo
    = sl.hi - d, and every reader of the cut takes its edge from here.  Cone
    gates are the forward light cone of the front region; the circuit equals
    (cone gates, in layer order) applied after (remaining gates), and the
    cone acts only on the band and the front.  An annotation lies behind the
    slice (left) or from the band on (right); one that straddles raises
    SplitError.  Gate ids are root gate ids in layer order and the band is
    in root coordinates; the front seeds the cone as an interval.  Every cut
    path starts here, so a slice off the lattice raises SplitError.
    """
    dims, axis, d = s.dims, sl.axis, s.depth
    if not 0 <= axis < len(dims):
        raise SplitError(f"slice {sl} on an axis outside the synthesis lattice {dims}")
    if not (0 <= sl.lo and sl.hi <= dims[axis]):
        raise SplitError(f"slice {sl} outside the synthesis lattice {dims}")
    if sl.width < 2 * d:
        raise CutError(
            f"insufficient light-cone separation: slice width {sl.width} < 2d = {2 * d}"
        )
    band_lo = sl.hi - d
    o = s.origin[axis]
    cone, reached = cone_gates(s.root, (), "forward", among=s.ids, slab=(axis, o + sl.hi, o + dims[axis]))
    if any(q[axis] < o + band_lo for q in reached):
        raise AssertionError("light cone of the front escaped its band")
    left_ops, right_ops = [], []
    for op in s.ops:
        lo, hi = (x - o for x in op.extent(axis))
        if hi < sl.lo:
            left_ops.append(op)
        elif lo >= band_lo:
            right_ops.append(op)
        else:
            raise SplitError(f"cut operator on {op.qubits} straddles the slice")
    in_cone = set(cone)
    return (band_lo, tuple(i for i in s.ids if i not in in_cone), cone, tuple(left_ops), tuple(right_ops),
            s.root_sites(axis=axis, lo=band_lo, hi=sl.hi))


def _band_state(view: Synthesis, band, cap: int) -> np.ndarray:
    """omega: the reduced state on `band` of one sweep of the window `view`."""
    t, live = oracle._open(*oracle.synthesis_state(view, cap), band, cap)  # a band no gate touches
    return oracle.reduce(t, [live.index(q) for q in band], cap)


def _gram_of_columns(view: Synthesis, band, cap: int) -> np.ndarray:
    """W^dagger W of the window `view`, from its band to its other sites."""
    cols = _front_columns(view, band, cap)
    return cols.conj().T @ cols


def cut_data(s: Synthesis, sl: Slice, T: int, cap: int = oracle.DEFAULT_CAP,
             memo: dict | None = None) -> CutData:
    """Spectral data of the cut state at `sl`, from light-cone windows.

    The cut state is rho_front = W omega W^dagger.  The band state omega is
    the state after the left gates and left annotations, with C (the back
    half of the slice and the left M sites) conditioned on zero and
    everything but the band traced out.  Only the backward light cone of the
    band, C and the left annotations acts on it, and the sites that cone
    reaches split along the cut axis into windows that evolve independently:
    every window is one oracle.synthesis_state sweep with its part of C as M
    and the rest as L.  The window holding the band gives omega, the band's
    reduced state of that sweep, and every other window only a scalar
    factor, its exact synthesis value.  The band-sized W^dagger W comes the
    same way from the backward cone of the band and the front sandwich
    annotations within the front gates, its band window giving W as one
    operator sweep (`_front_columns`).  So the dense states of a cut span a
    few windows, however long the lattice.

    Nothing here visits the sites of `s`: C is the slice range below the
    band plus the M sites behind the slice (read from the role bytes), the
    front and band are ranges of its box, and each cone is seeded with its
    slab as an interval (`cone_gates(..., slab=)`).  Every window is a box
    carved by `_segment`, and the record's sites, gate ids and annotations
    are in the root coordinates of `s` (see CutData).

    The scalar factors are not multiplied in: omega, W^dagger W, and so
    mu, kappa, `left_op` and `right_input`, come from the band windows
    alone, and the products of the factors are kept as `omega_scale` and
    `front_scale` (see CutData).  The children's annotations therefore do
    not shrink with the lattice, and equal windows give equal annotations
    to the bit, wherever the cut lies.  The weight, the residuals and the
    kept eigenvalues are decided at the true scale.  T sets kappa
    (`kappa_from_spectrum`); the projector does not depend on it.

    omega, W^dagger W and the Gram are dense 2^|band| x 2^|band| matrices,
    so 2|band| is checked against the cap before any window is swept.  The
    front matrix W sqrt(omega) (`amat`, dense on the front sites) is built,
    and checked against the cap, only when a front-side projector is asked
    for.

    `memo` is the estimate's table of work (see `dnc`): given one, every
    window is looked up there before it is swept, the band windows' omega and
    W^dagger W and the other windows' values alike, keyed on the window's
    content, and stored after.  Cuts of equal pieces, and cuts whose windows
    repeat along a lattice, then sweep each distinct window once per
    estimate.  Without one (the default) every window is swept.
    """
    axis = sl.axis
    band_lo, left_ids, cone_ids, left_ops, right_ops, band = causal_split(s, sl)
    if any(op.kind == "insertion" for op in s.ops):
        raise SplitError("cannot split through a synthesis with insertion operators")
    oracle._check_cap(2 * len(band), cap)  # the dense band matrices

    # --- band state omega from the backward cone of band, C and left annotations;
    # C, conditioned on zero: the slice below the band and the M sites behind it
    if b"M" in _carve_roles(s.roles, s.dims, axis, band_lo, sl.hi):
        raise SplitError("the cut band is post-selected; the slice overlaps an input band")
    seed = s.root_sites("M", axis, 0, sl.lo) + tuple(q for op in left_ops for q in op.qubits)
    cond = ((sl.hi, s.dims[axis], b"L"), (sl.lo, band_lo, b"M"))
    omega, omega_scale = _band_windows(
        s, axis, band, left_ids, (sl.lo, sl.hi), seed,
        lambda lo, hi, ids: _segment(s, axis, lo, hi, ids, left_ops, _ONLY_M, cond), cap, _band_state, memo)

    # --- W^dagger W from the backward cone of band and front sandwiches
    sandwiches = [op for op in right_ops if op.kind == "sandwich"]
    wtw, front_scale = _band_windows(
        s, axis, band, cone_ids, (band_lo, sl.hi), tuple(q for op in sandwiches for q in op.qubits),
        lambda lo, hi, ids: _segment(s, axis, lo, hi, ids, sandwiches, _ALL_L), cap, _gram_of_columns, memo)

    m_omega = _psd_sqrt(omega)
    gram = m_omega @ wtw @ m_omega  # (W sqrt(omega))^dagger (W sqrt(omega))
    gram = 0.5 * (gram + gram.conj().T)
    mu, gv = np.linalg.eigh(gram)
    order = np.argsort(mu)[::-1]
    mu, gv = np.clip(mu[order], 0.0, None), gv[:, order]
    scale = omega_scale * front_scale  # the true spectrum is scale * mu
    weight = scale * float(mu.sum())
    if weight <= 0.0:
        raise CutError("non-heavy slice: cut state has zero trace")
    kept = scale * mu > TAU
    if not kept.any():
        kept[0] = True
    kap = kappa_from_spectrum(mu, T)

    # the cut operator, the kept eigenprojector Pi, as 0/1 per eigenvalue of G
    f = kept.astype(float)
    f_over_mu = np.divide(f, mu, out=np.zeros_like(mu), where=kept)
    # left: W^dag Pi W;  right: sqrt(omega) Pi_G sqrt(omega)
    left_op = (wtw @ m_omega) @ ((gv * f_over_mu) @ gv.conj().T) @ (m_omega @ wtw)
    right_input = m_omega @ ((gv * f) @ gv.conj().T) @ m_omega
    left_op = 0.5 * (left_op + left_op.conj().T)
    right_input = 0.5 * (right_input + right_input.conj().T)

    return CutData(
        source=s,
        slice_=sl,
        band_lo=band_lo,
        band=band,
        weight=weight,
        kappa=kap,
        eigvals=mu,
        kept=kept,
        e_residual=max(0.0, 1.0 - weight),
        g_residual=scale * float(mu[~kept].sum()),
        left_op=left_op,
        right_input=right_input,
        gram_vectors=gv,
        m_omega=m_omega,
        omega_scale=omega_scale,
        front_scale=front_scale,
        left_ids=left_ids,
        cone_ids=cone_ids,
        left_ops=left_ops,
        right_ops=right_ops,
        cap=cap,
    )


def slice_weight(s: Synthesis, sl: Slice, cap: int = oracle.DEFAULT_CAP) -> float:
    """tr <0_{M_slice}| phi |0_{M_slice}> -- the post-selected slice weight."""
    view = _recast(s, roles=_mark(s.roles.translate(_ALL_L), s.dims, sl.axis, sl.lo, sl.hi, b"M"))
    return oracle.synthesis_value_exact(view, cap=cap)


def kappa(s: Synthesis, sl: Slice, T: int, cap: int = oracle.DEFAULT_CAP) -> float:
    """Normalization constant (tr rho^{2T})^{1/(2T)} of the cut state at `sl`,
    at true scale (CutData.kappa leaves out the other windows' factors)."""
    data = cut_data(s, sl, T, cap=cap)
    return data.omega_scale * data.front_scale * data.kappa


def cut_projector(s: Synthesis, sl: Slice, cap: int = oracle.DEFAULT_CAP) -> np.ndarray:
    """Dense front-side cut operator: the orthogonal projector onto the
    eigenvectors of the cut state with eigenvalue > TAU (true scale)."""
    data = cut_data(s, sl, 2, cap=cap)  # T sets only kappa
    oracle._check_cap(2 * len(data.front_sites), cap)  # dense 2^|F| x 2^|F| output
    factors = data.projector_factors()
    return factors @ factors.conj().T


def inserted_value(s: Synthesis, slices: list[Slice], T: int, cap: int = oracle.DEFAULT_CAP) -> float:
    """Value of s with cut operators inserted at `slices` (rightmost first).

    This is the reference decomposition the signed combination approximates;
    each insertion's projector is computed in the context of the plain s.
    """
    return oracle.synthesis_value_exact(PhiDescriptor(s).with_insertions(slices, T, cap=cap), cap=cap)


# ---------------------------------------------------------------------------
# sub-synthesis construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhiDescriptor:
    """Middle-segment synthesis with cut-operator annotations on both ends."""

    middle: Synthesis

    def with_insertions(self, slices, T: int, cap: int = oracle.DEFAULT_CAP,
                        memo: dict | None = None) -> Synthesis:
        """The middle with the insertions of `slices` (in its frame) added;
        `memo` is the estimate's table, which `cut_data` looks windows up in."""
        ops = tuple(cut_data(self.middle, sl, T, cap=cap, memo=memo).insertion
                    for sl in sorted(slices, key=lambda x: -x.lo))
        return _recast(self.middle, ops=self.middle.ops + ops)


@dataclass(frozen=True, eq=False)
class SplitResult:
    left: Synthesis
    right: Synthesis


def split_at_cuts(data: CutData) -> SplitResult:
    """Cut `data.source` at `data.slice_` into a left and a right sub-synthesis.

    The band of the cut is traced (L) in the left child, which carries the
    sandwich, and post-selected (M) in the right child, which loads the input
    state.  Both children keep the annotations of the source on their side,
    and their gates are the two sides of the partition `cut_data` recorded.
    """
    s, sl, band_lo = data.source, data.slice_, data.band_lo
    left = _segment(s, sl.axis, 0, sl.hi, data.left_ids, data.left_ops + (data.sandwich,),
                    marks=((band_lo, sl.hi, b"L"),))
    right = _segment(s, sl.axis, sl.lo, s.dims[sl.axis], data.cone_ids,
                     data.right_ops + (data.input_state,), marks=((band_lo, sl.hi, b"M"),))
    return SplitResult(left, right)


def middle_between_cuts(data_i: CutData, data_j: CutData) -> PhiDescriptor:
    """The middle segment of a synthesis between its cuts i and j (j right of i).

    Both cuts must come from the same `cut_data` source.  The middle spans
    [i.lo, j.hi), keeps the gates of cut i's front cone outside cut j's,
    loads cut i's input state on i's band (M) and carries cut j's sandwich
    on j's band (L); the left and right pieces are the children of the
    one-cut splits at i and at j.
    """
    s, i, j = data_i.source, data_i.slice_, data_j.slice_
    if data_j.source is not s:
        raise SplitError("the two cuts come from different syntheses")
    axis = i.axis
    if j.axis != axis:
        raise SplitError("slices must share an axis")
    if j.lo < i.hi:
        raise SplitError("slices overlap or j is not right of i")
    if set(data_i.right_ops) & set(data_j.left_ops):
        raise SplitError("cut operator inside the middle segment")
    right_of_j = set(data_j.cone_ids)
    middle = _segment(s, axis, i.lo, j.hi, (g for g in data_i.cone_ids if g not in right_of_j),
                      [data_i.input_state, data_j.sandwich],
                      marks=((data_j.band_lo, j.hi, b"L"), (data_i.band_lo, i.hi, b"M")))
    return PhiDescriptor(middle)
