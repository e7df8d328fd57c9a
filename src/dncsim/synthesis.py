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
computed from the band-sized Gram matrix G = sqrt(omega) W^dagger W
sqrt(omega) = U diag(mu) U^dagger, so nothing large is ever diagonalized.

Every cut applies one operator to its cut state, and `cut_data` decides it
once, as a weight f(mu) per eigenvalue of G: f = 1 on the kept eigenvalues
(above tau) and 0 elsewhere in the exact-spectral calculus, the orthogonal
projector Pi; f = (mu/kappa)^{2K} in the power-encoding calculus, the power
(rho/kappa)^{2K}.  The left child's sandwich, the right child's input state
and the front-side projector of an insertion are all built from f.

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
        t = oracle.apply_gates(t, ((g.matrix, [index[q] for q in g.qubits]) for _, g in s.gamma.gates()))
        for op in s.cut_ops:
            t = oracle.apply_sandwich(t, op, [index[q] for q in op.qubits])
        cols[:, x] = t[(0,) * nb].reshape(-1)  # the band projected on zero
    return cols


@dataclass(eq=False)
class CutData:
    """Everything the algorithms need about one cut of one synthesis.

    `weights` holds the cut operator as f(mu), one weight per eigenvalue of
    the band Gram U diag(mu) U^dagger (U = `gram_vectors`), and all three
    forms of the operator are built from it:

        left_op      kappa^2K (W^dag W sqrt(omega)) U diag(f/mu) U^dag (sqrt(omega) W^dag W)
        right_input  kappa^2K sqrt(omega) U diag(f) U^dag sqrt(omega)
        front side   sum_j f_j a_j a_j^dag,  a_j = W sqrt(omega) u_j / sqrt(mu_j)
    """

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
    weights: np.ndarray  # the cut operator f(mu): 0/1 on kept, or (mu/kappa)^2K
    front_columns: Callable[[], np.ndarray] = field(repr=False)  # builds W on the front

    @cached_property
    def amat(self) -> np.ndarray:
        """W sqrt(omega) on the front sites; dense on the front, so built on first use."""
        return self.front_columns() @ self.m_omega

    def projector_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """(factors, coeffs) of the front-side cut operator: its eigenvectors
        with weight f > 0 (orthonormal columns), and those weights."""
        on = self.weights > 0
        return self.amat @ self.gram_vectors[:, on] / np.sqrt(self.eigvals[on]), self.weights[on]


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
        kept[0] = True
    kap = kappa_from_spectrum(mu, calc.T)

    # the cut operator f(mu): the kept eigenprojector Pi, or (rho/kappa)^2K
    if calc.mode == "exact-spectral":
        f, g_res = kept.astype(float), float(mu[~kept].sum())
    else:
        f, g_res = (mu / kap) ** (2 * calc.K), 0.0
    scale = kap ** (2 * calc.K)
    f_over_mu = np.divide(f, mu, out=np.zeros_like(mu), where=f > 0)
    # left: kappa^2K W^dag f(rho) W;  right: kappa^2K sqrt(omega) f(G) sqrt(omega)
    left_op = scale * (wtw @ m_omega) @ ((gv * f_over_mu) @ gv.conj().T) @ (m_omega @ wtw)
    right_input = scale * m_omega @ ((gv * f) @ gv.conj().T) @ m_omega
    left_op = 0.5 * (left_op + left_op.conj().T)
    right_input = 0.5 * (right_input + right_input.conj().T)

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
        weights=f,
        front_columns=front_columns,
    )


def slice_weight(s: Synthesis, sl: Slice, cap: int = oracle.DEFAULT_CAP) -> float:
    """tr <0_{M_slice}| phi |0_{M_slice}> -- the post-selected slice weight."""
    slice_sites = _axis_filter(s, sl.lo, sl.hi, sl.axis)
    view = Synthesis(
        gamma=s.gamma,
        L=tuple(q for q in s.gamma.sites() if not sl.lo <= q[sl.axis] < sl.hi),
        M=tuple(slice_sites),
        N=(),
        declared_axes=s.declared_axes,
        cut_ops=s.cut_ops,
    )
    return oracle.synthesis_value_exact(view, cap=cap)


def kappa(s: Synthesis, sl: Slice, T: int, calc: CutCalculus | None = None,
          cap: int = oracle.DEFAULT_CAP) -> float:
    """Normalization constant (tr rho^{2T})^{1/(2T)} of the cut state at `sl`."""
    return cut_data(s, sl, replace(calc or CutCalculus(), T=T), cap=cap).kappa


def cut_projector(s: Synthesis, sl: Slice, calc: CutCalculus, cap: int = oracle.DEFAULT_CAP) -> np.ndarray:
    """Dense front-side cut operator f(rho), f the weights of `cut_data`.

    exact-spectral: the orthogonal projector onto the eigenvectors of the cut
    state with eigenvalue > tau.  power-encoding: (rho/kappa)^{2K}, which is
    the block of the literal power encoding of rho^{2K} over kappa^{2K} (the
    block-encoding tests check the two against each other).
    """
    data = cut_data(s, sl, calc, cap=cap)
    oracle._check_cap(2 * len(data.front_sites), cap)  # dense 2^|F| x 2^|F| output
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
    return oracle.synthesis_value_exact(PhiDescriptor(s).with_insertions(slices, calc, cap=cap), cap=cap)


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
    right: Synthesis
    data: CutData


def _band_sandwich(data: CutData) -> CutOp:
    """The left-hand side's cut operator, on the band of the cut."""
    return CutOp(kind="sandwich", qubits=data.band, matrix=_psd_sqrt(data.left_op))


def _band_input(data: CutData) -> CutOp:
    """The right-hand side's input state, on the band of the cut."""
    return CutOp(kind="input_state", qubits=data.band, matrix=data.right_input)


def _check_inside(s: Synthesis, sl: Slice) -> None:
    if not (0 <= sl.lo and sl.hi <= s.gamma.dims[sl.axis]):
        raise SplitError(f"slice {sl} outside the synthesis lattice")


def split_at_cuts(
    s: Synthesis,
    sl: Slice,
    calc: CutCalculus,
    cap: int = oracle.DEFAULT_CAP,
    data: CutData | None = None,
) -> SplitResult:
    """Cut `s` at slice `sl` into a left and a right sub-synthesis.

    The band of the cut is traced (L) in the left child, which carries the
    sandwich, and post-selected (M) in the right child, which loads the input
    state.  Both children keep the annotations of `s` on their side.
    """
    axis = sl.axis
    _check_inside(s, sl)
    left_ids, cone, _ = causal_split(s, sl)
    left_ops, right_ops = _partition_ops(s, sl)
    if data is None:
        data = cut_data(s, sl, calc, cap=cap)
    band = data.band
    left = _segment(s, axis, 0, sl.hi, left_ids, left_ops + [_band_sandwich(data)],
                    lambda q: "L" if q in band else None)
    right = _segment(s, axis, sl.lo, s.gamma.dims[axis], cone, right_ops + [_band_input(data)],
                     lambda q: "M" if q in band else None)
    return SplitResult(left, right, data)


def middle_between_cuts(
    s: Synthesis,
    i: Slice,
    j: Slice,
    calc: CutCalculus,
    cap: int = oracle.DEFAULT_CAP,
    data_i: CutData | None = None,
    data_j: CutData | None = None,
) -> PhiDescriptor:
    """The middle segment of `s` between cuts i and j (j right of i).

    It spans [i.lo, j.hi), loads cut i's input state on i's band (M) and
    carries cut j's sandwich on j's band (L); the left and right pieces are
    the children of the one-cut splits at i and at j.
    """
    axis = i.axis
    _check_inside(s, i)
    _check_inside(s, j)
    if j.axis != axis:
        raise SplitError("slices must share an axis")
    if j.lo < i.hi:
        raise SplitError("slices overlap or j is not right of i")
    for op in s.cut_ops:
        lo, hi = op.extent(axis)
        if lo >= i.hi - s.gamma.depth and hi < j.lo:
            raise SplitError("cut operator inside the middle segment")
    _, cone_i, _ = causal_split(s, i)
    _, cone_j, _ = causal_split(s, j)
    if data_i is None:
        data_i = cut_data(s, i, calc, cap=cap)
    if data_j is None:
        data_j = cut_data(s, j, calc, cap=cap)
    band_i, band_j = data_i.band, data_j.band
    middle = _segment(s, axis, i.lo, j.hi, cone_i - cone_j, [_band_input(data_i), _band_sandwich(data_j)],
                      lambda q: "L" if q in band_j else "M" if q in band_i else None)
    return PhiDescriptor(middle)
