"""Syntheses, cut-state machinery, and sub-synthesis construction.

A synthesis is a circuit together with three register roles:

    L  traced out,
    M  post-selected to |0>,
    N  output (the evaluated quantity is <0_N| phi |0_N>).

Children produced by cutting carry small *cut-operator annotations* at their
cut-adjacent bands: an input state on the band for the right-hand child, a
positive sandwich operator on the band for the left-hand child, and explicit
projector insertions for the middle pieces of multi-cut terms.  Annotation
operators are always confined to a band of thickness equal to the circuit
depth, which is what keeps the recursion compositional.  Every sub-synthesis
(a child of a cut, a slab of the slice-weight scan, a window of `cut_data`)
is carved by one builder, `_segment`: a range of sites along one axis,
shifted to start at 0, with its gates, annotations, roles and `origin`.

Cut-state structure exploited throughout: for a slice of width >= 2d the
conditioned front state factors through the band,

    rho_front = W omega W^dagger,

with W the band-to-front contraction built from the gates in the forward
light cone of the front region and omega the band state conditioned on zeros
behind the cut.  All spectral quantities (kappa, projectors, residuals) are
computed from the band-sized Gram matrix sqrt(omega) W^dagger W sqrt(omega),
so nothing large is ever diagonalized.

Nothing large is simulated either.  omega and W^dagger W each depend only on
the gates in one backward light cone (of the band, the conditioned sites and
the annotations).  The sites a cone reaches fall into windows, maximal runs
along the cut axis with the full cross-section, that evolve independently:
the window holding the band is simulated densely, and every other window
contributes a scalar factor, its exact synthesis value.  So the cost of a cut
depends on the depth and the cross-section, not on the length of the lattice.
The front matrix W sqrt(omega), dense on all front sites, is built only on
first use, when a front-side projector is asked for (`CutData.amat`).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import oracle
from .geomcircuit import Coord, CutError, Gate, LatticeCircuit, Slice, cone_gates

# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def _shift(q: Coord, axis: int, delta: int) -> Coord:
    return tuple(c + delta if k == axis else c for k, c in enumerate(q))


@dataclass(frozen=True, eq=False)
class CutOp:
    """Operator annotation attached to a synthesis.

    kinds:
      input_state  PSD matrix: initial state of `qubits` (loaded by purification)
      sandwich     matrix (or low-rank factors) applied after the M projection
      insertion    |0><0| on `project_zero`, then the low-rank projector on `qubits`
    """

    kind: str
    qubits: tuple[Coord, ...]
    matrix: np.ndarray | None = None
    factors: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    project_zero: tuple[Coord, ...] = ()

    def shifted(self, axis: int, delta: int) -> "CutOp":
        move = lambda qs: tuple(_shift(q, axis, delta) for q in qs)
        return replace(self, qubits=move(self.qubits), project_zero=move(self.project_zero))

    def extent(self, axis: int) -> tuple[int, int]:
        """Lowest and highest coordinate along `axis` of the sites it acts on."""
        xs = [q[axis] for q in self.qubits + self.project_zero]
        return min(xs), max(xs)


@dataclass(frozen=True, eq=False)
class Synthesis:
    """Register-tagged circuit; evaluates to <0_N| phi |0_N>.

    `declared_axes` lists which coordinate positions count as lattice
    dimensions (dimension reduction shrinks it); `thickness` records absorbed
    widths.  `origin` is the absolute coordinate of this synthesis's (0,..,0)
    site in the top-level lattice, used to match globally-enumerated slices.
    """

    gamma: LatticeCircuit
    L: tuple[Coord, ...]
    M: tuple[Coord, ...]
    N: tuple[Coord, ...]
    declared_axes: tuple[int, ...]
    thickness: tuple[int, ...] = ()
    cut_ops: tuple[CutOp, ...] = ()
    origin: tuple[int, ...] = ()

    def __post_init__(self):
        sites = set(self.gamma.sites())
        roles = set(self.L) | set(self.M) | set(self.N)
        if roles != sites:
            raise ValueError("L, M, N must partition the lattice sites")
        if len(set(self.L)) + len(set(self.M)) + len(set(self.N)) != len(sites):
            raise ValueError("L, M, N must be disjoint")

    @property
    def declared_dims(self) -> tuple[int, ...]:
        return tuple(self.gamma.dims[a] for a in self.declared_axes)

    @property
    def depth(self) -> int:
        return self.gamma.depth

    def width(self, axis: int) -> int:
        return self.gamma.dims[axis]


def synthesis_of_circuit(circ: LatticeCircuit) -> Synthesis:
    """Trivial synthesis: L = M = empty, N = all qubits."""
    return Synthesis(
        gamma=circ,
        L=(),
        M=(),
        N=circ.sites(),
        declared_axes=tuple(range(len(circ.dims))),
        origin=(0,) * len(circ.dims),
    )


@dataclass(frozen=True)
class CutCalculus:
    """How cut operators are realized.

    exact-spectral: orthogonal eigenprojector above tau, kappa from trace
    powers; power-encoding: literal density-operator powers rho^K.
    """

    mode: str = "exact-spectral"
    tau: float = 1e-6
    K: int = 2
    T: int = 2

    def __post_init__(self):
        if self.mode not in ("exact-spectral", "power-encoding"):
            raise ValueError(f"unknown calculus mode {self.mode!r}")
        if self.K < 1 or self.T < 1:
            raise ValueError("K and T must be >= 1")


class SplitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cut-state engine
# ---------------------------------------------------------------------------


def _axis_filter(s: Synthesis, lo, hi, axis) -> list[Coord]:
    return [q for q in s.gamma.sites() if lo <= q[axis] < hi]


def _restrict_layers(circ: LatticeCircuit, keep_ids, axis: int, delta: int, new_dims):
    layers = []
    for t, layer in enumerate(circ.layers):
        kept = []
        for gi, g in enumerate(layer):
            if (t, gi) in keep_ids:
                kept.append(Gate(g.matrix, tuple(_shift(q, axis, delta) for q in g.qubits), name=g.name))
        layers.append(tuple(kept))
    return LatticeCircuit(tuple(new_dims), circ.depth, tuple(layers))


def _light_cone_windows(circ: LatticeCircuit, gate_ids, seed, axis: int):
    """Backward light cone of `seed` through the gates `gate_ids` of `circ`,
    split into windows that evolve independently.

    The sites the cone reaches are grouped into maximal runs of consecutive
    coordinates along `axis`; a window is one run with the full cross-section,
    together with the cone gates inside it (a gate spans at most two adjacent
    coordinates, so none links two windows).  Returns [(lo, hi, gate ids)].
    """
    ids, reached = cone_gates(circ, seed, "backward", among=gate_ids)
    runs: list[list[int]] = []
    for x in sorted({q[axis] for q in reached}):
        if runs and x == runs[-1][1]:
            runs[-1][1] = x + 1
        else:
            runs.append([x, x + 1])
    return [
        (lo, hi, {(t, gi) for t, gi in ids if lo <= circ.layers[t][gi].qubits[0][axis] < hi})
        for lo, hi in runs
    ]


def _segment(s: Synthesis, axis: int, lo: int, hi: int, gate_ids, ops=(), role=None) -> Synthesis:
    """Sites [lo, hi) of `s` along `axis` as a synthesis of their own, shifted
    to start at 0.

    It keeps the gates `gate_ids` of s and those annotations of `ops` (given
    in the frame of s) that lie inside.  A site q of s gets the role `role(q)`,
    or its role in s where `role` is None or returns None.  `origin` moves by
    lo along `axis`.  Every sub-synthesis is carved here: the children of a
    cut, the slabs of the slice-weight scan and the windows of `cut_data`.
    """
    m_sites, l_sites = set(s.M), set(s.L)
    roles: dict[str, list[Coord]] = {"L": [], "M": [], "N": []}
    for q in s.gamma.sites():
        if lo <= q[axis] < hi:
            r = role(q) if role is not None else None
            if r is None:
                r = "M" if q in m_sites else "L" if q in l_sites else "N"
            roles[r].append(_shift(q, axis, -lo))
    dims = tuple(hi - lo if k == axis else w for k, w in enumerate(s.gamma.dims))
    inside = lambda extent: lo <= extent[0] and extent[1] < hi
    return Synthesis(
        gamma=_restrict_layers(s.gamma, gate_ids, axis, -lo, dims),
        L=tuple(roles["L"]),
        M=tuple(roles["M"]),
        N=tuple(roles["N"]),
        declared_axes=s.declared_axes,
        thickness=s.thickness,
        cut_ops=tuple(op.shifted(axis, -lo) for op in ops if inside(op.extent(axis))),
        origin=_shift(s.origin or (0,) * len(dims), axis, lo),
    )


def _front_columns(s: Synthesis, band, cap: int) -> np.ndarray:
    """The contraction W of `s` from `band` to its other sites.

    Column x is <0_band| S V |x_band, 0_rest> with V the gates of s and S its
    sandwich annotations; shape (2^(n - |band|), 2^|band|), rows in site order.
    """
    band_set = set(band)
    sites = list(band) + [q for q in s.gamma.sites() if q not in band_set]
    n, nb = len(sites), len(band)
    oracle._check_cap(n, cap)
    index = {q: i for i, q in enumerate(sites)}
    cols = np.zeros((2 ** (n - nb), 2**nb), dtype=complex)
    basis = np.eye(2**nb).reshape([2**nb] + [2] * nb)
    for x in range(2**nb):  # one column at a time: a batch would take 2^nb times the memory
        t = oracle.product_state(n, range(nb), basis[x])  # band axes are the leading axes
        for _, g in s.gamma.gates():
            t = oracle.apply_gate(t, g.matrix, [index[q] for q in g.qubits])
        for op in s.cut_ops:
            t = oracle.apply_sandwich(t, op, [index[q] for q in op.qubits])
        cols[:, x] = t[(0,) * nb].reshape(-1)  # the band projected on zero
    return cols


@dataclass(eq=False)
class CutData:
    """Everything the algorithms need about one cut of one synthesis."""

    slice_: Slice
    band: tuple[Coord, ...]
    front_sites: tuple[Coord, ...]
    weight: float  # trace of the cut state
    kappa: float
    eigvals: np.ndarray  # nonzero spectrum of the cut state (descending)
    kept: np.ndarray  # boolean mask of eigenvalues above tau
    e_residual: float  # 1 - weight (slice residual)
    g_residual: float  # spectral mass dropped by the projector
    left_op: np.ndarray  # band PSD operator for the left child (pre-sqrt)
    right_input: np.ndarray  # band PSD input state for the right child
    gram_vectors: np.ndarray  # eigenvectors of the band Gram (columns)
    m_omega: np.ndarray  # sqrt(omega), omega the band state
    front_columns: Callable[[], np.ndarray] = field(repr=False)  # builds W on the front
    calculus: CutCalculus = field(default=CutCalculus())

    @cached_property
    def amat(self) -> np.ndarray:
        """W sqrt(omega) on the front sites; dense on the front, so built on first use."""
        return self.front_columns() @ self.m_omega

    def projector_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(factors, coeffs) of the front-side cut operator Pi (or (rho/kappa)^2K)."""
        mu = self.eigvals
        if self.calculus.mode == "exact-spectral":
            idx = np.nonzero(self.kept)[0]
            coeffs = np.ones(len(idx))
        else:
            idx = np.nonzero(mu > 0)[0]
            coeffs = (mu[idx] / self.kappa) ** (2 * self.calculus.K)
        cols = []
        for j in idx:
            cols.append(self.amat @ self.gram_vectors[:, j] / np.sqrt(mu[j]))
        factors = np.stack(cols, axis=1) if cols else np.zeros((self.amat.shape[0], 0))
        return factors, coeffs


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def kappa_from_spectrum(eigvals, T: int) -> float:
    """(sum_j mu_j^{2T})^{1/(2T)} -- the normalization scale of a cut state."""
    mu = np.clip(np.asarray(eigvals, dtype=float), 0.0, None)
    if T < 1:
        raise ValueError("T must be >= 1")
    total = float(np.sum(mu ** (2 * T)))
    if total <= 0.0:
        raise CutError("non-heavy slice: cut state has zero trace")
    return total ** (1.0 / (2 * T))


def causal_split(s: Synthesis, sl: Slice):
    """Partition gates at a slice: (left gate ids, cone gate ids, band sites).

    Cone gates are the forward light cone of the front region; the circuit
    equals (cone gates, in layer order) applied after (remaining gates).
    The cone acts only on the band (last d sites of the slice) and the front.
    """
    d = s.gamma.depth
    if sl.width < 2 * d:
        raise CutError(
            f"insufficient light-cone separation: slice width {sl.width} < 2d = {2 * d}"
        )
    axis = sl.axis
    front = _axis_filter(s, sl.hi, s.gamma.dims[axis], axis)
    band = _axis_filter(s, sl.hi - d, sl.hi, axis)
    cone, reached = cone_gates(s.gamma, front, "forward")
    allowed = set(front) | set(band)
    if not set(reached) <= allowed:
        raise AssertionError("light cone of the front escaped its band")
    every = {(t, gi) for t, layer in enumerate(s.gamma.layers) for gi in range(len(layer))}
    return every - cone, cone, tuple(band)


def _partition_ops(s: Synthesis, sl: Slice):
    left_ops, right_ops = [], []
    for op in s.cut_ops:
        lo, hi = op.extent(sl.axis)
        if hi < sl.lo:
            left_ops.append(op)
        elif lo >= sl.hi - s.gamma.depth:
            right_ops.append(op)
        else:
            raise SplitError(f"cut operator on {op.qubits} straddles the slice")
    return left_ops, right_ops


def cut_data(s: Synthesis, sl: Slice, calc: CutCalculus, cap: int = oracle.DEFAULT_CAP) -> CutData:
    """Spectral data of the cut state at `sl`, from light-cone windows.

    The cut state is rho_front = W omega W^dagger.  The band state omega is
    the state after the left gates and left annotations, with C (the back
    half of the slice and the left M sites) conditioned on zero and
    everything but the band traced out.  Only the backward light cone of the
    band, C and the left annotations acts on it, and the sites that cone
    reaches split along the cut axis into windows that evolve independently:
    the window holding the band gives omega, through oracle.synthesis_state,
    and every other window only a scalar factor, its exact synthesis value
    with its part of C as M.  The band-sized W^dagger W comes the same way
    from the backward cone of the band and the front sandwich annotations
    within the front gates.  So the dense states of a cut span a few windows,
    however long the lattice.  The front matrix W sqrt(omega) (`amat`, dense
    on the front sites) is built, and checked against the cap, only when a
    front-side projector is asked for.
    """
    axis, d = sl.axis, s.gamma.depth
    left_ids, cone_ids, band = causal_split(s, sl)
    left_ops, right_ops = _partition_ops(s, sl)
    if any(op.kind == "insertion" for op in s.cut_ops):
        raise SplitError("cannot split through a synthesis with insertion operators")
    inside = lambda lo, hi: lo <= band[0][axis] < hi

    # --- band state omega from the backward cone of band, C and left annotations
    m_sites = set(s.M)
    cond = {
        q for q in s.gamma.sites()
        if q[axis] < sl.hi and (q in m_sites or sl.lo <= q[axis] < sl.hi - d)
    }
    if cond & set(band):
        raise SplitError("the cut band is post-selected; the slice overlaps an input band")
    seed = cond | set(band) | {q for op in left_ops for q in op.qubits}
    conditioned = lambda q: "M" if q in cond else "L"
    omega, scale = None, 1.0
    for lo, hi, ids in _light_cone_windows(s.gamma, left_ids, seed, axis):
        view = _segment(s, axis, lo, hi, ids, left_ops, conditioned)
        if not inside(lo, hi):
            scale *= oracle.synthesis_value_exact(view, cap=cap)
            continue
        t, _, index = oracle.synthesis_state(view, cap=cap)
        for op in view.cut_ops:
            if op.kind == "sandwich":
                t = oracle.apply_sandwich(t, op, [index[q] for q in op.qubits])
        t = oracle.project_zero(t, [index[q] for q in view.M])
        omega = oracle.reduce(t, [index[_shift(q, axis, -lo)] for q in band])
    omega = scale * omega

    # --- W^dagger W from the backward cone of band and front sandwiches
    sandwiches = [op for op in right_ops if op.kind == "sandwich"]
    seed = set(band) | {q for op in sandwiches for q in op.qubits}
    traced = lambda q: "L"
    wtw, scale = None, 1.0
    for lo, hi, ids in _light_cone_windows(s.gamma, cone_ids, seed, axis):
        view = _segment(s, axis, lo, hi, ids, sandwiches, traced)
        if not inside(lo, hi):
            scale *= oracle.synthesis_value_exact(view, cap=cap)
            continue
        cols = _front_columns(view, [_shift(q, axis, -lo) for q in band], cap)
        wtw = cols.conj().T @ cols
    wtw = scale * wtw

    def front_columns() -> np.ndarray:
        lo = sl.hi - d
        view = _segment(s, axis, lo, s.gamma.dims[axis], cone_ids, sandwiches, traced)
        return _front_columns(view, [_shift(q, axis, -lo) for q in band], cap)

    m_omega = _psd_sqrt(omega)
    gram = m_omega @ wtw @ m_omega  # (W sqrt(omega))^dagger (W sqrt(omega))
    gram = 0.5 * (gram + gram.conj().T)
    mu, gv = np.linalg.eigh(gram)
    order = np.argsort(mu)[::-1]
    mu, gv = np.clip(mu[order], 0.0, None), gv[:, order]
    weight = float(mu.sum())
    if weight <= 0.0:
        raise CutError("non-heavy slice: cut state has zero trace")
    kept = mu > calc.tau
    if not kept.any():
        kept = np.zeros_like(mu, dtype=bool)
        kept[0] = True
    kap = kappa_from_spectrum(mu, calc.T)

    K = calc.K
    if calc.mode == "exact-spectral":
        # left operator  kappa^2K * W^dag Pi W,  Pi the kept eigenprojector
        p_tilde = sum(
            np.outer(gv[:, j], gv[:, j].conj()) / mu[j] for j in np.nonzero(kept)[0]
        )
        left_op = (kap ** (2 * K)) * (wtw @ m_omega) @ p_tilde @ (m_omega @ wtw)
        # right input  kappa^2K * sqrt(omega) P1 sqrt(omega),  W . W^dag = Pi rho Pi
        p1 = sum(np.outer(gv[:, j], gv[:, j].conj()) for j in np.nonzero(kept)[0])
        right_input = (kap ** (2 * K)) * m_omega @ p1 @ m_omega
    else:
        # literal powers: left W^dag rho^2K W, right sqrt(omega) G^2K sqrt(omega)
        gpow = (gv * mu ** (2 * K - 1)) @ gv.conj().T
        left_op = (wtw @ m_omega) @ gpow @ (m_omega @ wtw)
        g2k = (gv * mu ** (2 * K)) @ gv.conj().T
        right_input = m_omega @ g2k @ m_omega
    left_op = 0.5 * (left_op + left_op.conj().T)
    right_input = 0.5 * (right_input + right_input.conj().T)

    g_res = float(mu[~kept].sum()) if calc.mode == "exact-spectral" else 0.0
    return CutData(
        slice_=sl,
        band=band,
        front_sites=tuple(_axis_filter(s, sl.hi, s.gamma.dims[axis], axis)),
        weight=weight,
        kappa=kap,
        eigvals=mu,
        kept=kept,
        e_residual=max(0.0, 1.0 - weight),
        g_residual=g_res,
        left_op=left_op,
        right_input=right_input,
        gram_vectors=gv,
        m_omega=m_omega,
        front_columns=front_columns,
        calculus=calc,
    )


def slice_weight(s: Synthesis, sl: Slice, cap: int = oracle.DEFAULT_CAP) -> float:
    """tr <0_{M_slice}| phi |0_{M_slice}> -- the post-selected slice weight."""
    slice_sites = _axis_filter(s, sl.lo, sl.hi, sl.axis)
    roles = {}
    for q in s.gamma.sites():
        if q in set(slice_sites):
            roles[q] = "M"
        else:
            roles[q] = "L"
    view = Synthesis(
        gamma=s.gamma,
        L=tuple(q for q in s.gamma.sites() if roles[q] == "L"),
        M=tuple(slice_sites),
        N=(),
        declared_axes=s.declared_axes,
        cut_ops=s.cut_ops,
    )
    return oracle.synthesis_value_exact(view, cap=cap)


def kappa(s: Synthesis, sl: Slice, T: int, calc: CutCalculus | None = None,
          cap: int = oracle.DEFAULT_CAP) -> float:
    """Normalization constant (tr rho^{2T})^{1/(2T)} of the cut state at `sl`."""
    if T < 1:
        raise ValueError("T must be >= 1")
    base = calc or CutCalculus()
    data = cut_data(s, sl, replace(base, T=T), cap=cap)
    return data.kappa


def cut_projector(
    s: Synthesis,
    sl: Slice,
    calc: CutCalculus,
    cap: int = oracle.DEFAULT_CAP,
    via: str = "auto",
) -> np.ndarray:
    """Dense front-side cut operator.

    exact-spectral: orthogonal projector onto eigenvectors of the cut state
    with eigenvalue > tau.  power-encoding: (rho/kappa)^{2K}; when the circuit
    plus the block-encoding register copies fit the dense cap (and `via` is
    not "dense") the operator is extracted from the literal power encoding,
    otherwise it is computed from the spectral form (the two agree; the
    equality is asserted in the block-encoding tests).
    """
    data = cut_data(s, sl, calc, cap=cap)
    oracle._check_cap(2 * len(data.front_sites), cap)  # dense 2^|F| x 2^|F| output
    if calc.mode == "power-encoding" and via in ("auto", "encoding"):
        from . import blockenc
        from .geomcircuit import cut_regions

        k = 2 * calc.K
        try:
            if s.cut_ops:
                raise CutError("encoding extraction needs a plain synthesis")
            regions = cut_regions(s.gamma, sl)
            enc = blockenc.build_rho_power_encoding(s.gamma, regions, k, side="F")
            block = blockenc.encoding_block(enc, cap=cap)
            return block / data.kappa**k
        except (oracle.OracleCapacityError, CutError, ValueError):
            if via == "encoding":
                raise
    factors, coeffs = data.projector_factors()
    return (factors * coeffs) @ factors.conj().T


def insertion_op(s: Synthesis, sl: Slice, calc: CutCalculus, cap: int = oracle.DEFAULT_CAP) -> CutOp:
    """|0><0| on the slice then the cut operator on the front, as a CutOp."""
    data = cut_data(s, sl, calc, cap=cap)
    factors, coeffs = data.projector_factors()
    slice_sites = tuple(_axis_filter(s, sl.lo, sl.hi, sl.axis))
    return CutOp(
        kind="insertion",
        qubits=data.front_sites,
        factors=factors,
        coeffs=coeffs,
        project_zero=slice_sites,
    )


def inserted_value(
    s: Synthesis, slices: list[Slice], calc: CutCalculus, cap: int = oracle.DEFAULT_CAP
) -> float:
    """Value of s with cut operators inserted at `slices` (rightmost first).

    This is the reference decomposition the signed combination approximates;
    each insertion's projector is computed in the context of the plain s.
    """
    ops = [insertion_op(s, sl, calc, cap=cap) for sl in sorted(slices, key=lambda x: -x.lo)]
    annotated = replace(s, cut_ops=s.cut_ops + tuple(ops))
    return oracle.synthesis_value_exact(annotated, cap=cap)


# ---------------------------------------------------------------------------
# sub-synthesis construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PhiDescriptor:
    """Middle-segment synthesis with cut-operator annotations on both ends."""

    middle: Synthesis

    def with_insertions(self, slices, calc: CutCalculus, cap: int = oracle.DEFAULT_CAP) -> Synthesis:
        ops = [
            insertion_op(self.middle, sl, calc, cap=cap)
            for sl in sorted(slices, key=lambda x: -x.lo)
        ]
        return replace(self.middle, cut_ops=self.middle.cut_ops + tuple(ops))


@dataclass(frozen=True, eq=False)
class SplitResult:
    left: Synthesis
    middle: Synthesis | None
    right: Synthesis
    phi: PhiDescriptor | None
    left_data: CutData
    right_data: CutData


def _band_sandwich(data: CutData) -> CutOp:
    """The left-hand side's cut operator, on the band of the cut."""
    return CutOp(kind="sandwich", qubits=data.band, matrix=_psd_sqrt(data.left_op))


def _band_input(data: CutData) -> CutOp:
    """The right-hand side's input state, on the band of the cut."""
    return CutOp(kind="input_state", qubits=data.band, matrix=data.right_input)


def split_at_cuts(
    s: Synthesis,
    i: Slice,
    j: Slice | None,
    calc: CutCalculus,
    cap: int = oracle.DEFAULT_CAP,
    data_i: CutData | None = None,
    data_j: CutData | None = None,
) -> SplitResult:
    """Cut `s` at slice i (and optionally a second slice j to its right).

    Returns the left sub-synthesis (ending at cut i), the middle segment
    between the cuts with cut-operator annotations on both ends (two-cut form
    only), and the right sub-synthesis (starting at cut i or j).  The band of
    a cut is traced (L) in the child on its left, which carries the sandwich,
    and post-selected (M) in the child on its right, which loads the input
    state.
    """
    axis = i.axis
    if not (0 <= i.lo and i.hi <= s.gamma.dims[axis]):
        raise SplitError("slice i outside the synthesis lattice")
    if j is not None:
        if j.axis != axis:
            raise SplitError("slices must share an axis")
        if j.lo < i.hi:
            raise SplitError("slices overlap or j is not right of i")
        if j.hi > s.gamma.dims[axis]:
            raise SplitError("slice j outside the synthesis lattice")
        for op in s.cut_ops:
            lo, hi = op.extent(axis)
            if lo >= i.hi - s.gamma.depth and hi < j.lo:
                raise SplitError("cut operator inside the middle segment")

    left_ids, cone_i, _ = causal_split(s, i)
    left_ops, right_ops = _partition_ops(s, i)
    if data_i is None:
        data_i = cut_data(s, i, calc, cap=cap)
    band_i = data_i.band
    left = _segment(s, axis, 0, i.hi, left_ids, left_ops + [_band_sandwich(data_i)],
                    lambda q: "L" if q in band_i else None)

    middle, r, data_r, cone_r = None, i, data_i, cone_i
    if j is not None:
        _, cone_j, _ = causal_split(s, j)
        _, right_ops = _partition_ops(s, j)
        if data_j is None:
            data_j = cut_data(s, j, calc, cap=cap)
        band_j = data_j.band
        middle = _segment(s, axis, i.lo, j.hi, cone_i - cone_j, [_band_input(data_i), _band_sandwich(data_j)],
                          lambda q: "L" if q in band_j else "M" if q in band_i else None)
        r, data_r, cone_r = j, data_j, cone_j
    band_r = data_r.band
    right = _segment(s, axis, r.lo, s.gamma.dims[axis], cone_r, right_ops + [_band_input(data_r)],
                     lambda q: "M" if q in band_r else None)
    phi = PhiDescriptor(middle) if middle is not None else None
    return SplitResult(left, middle, right, phi, data_i, data_r)
