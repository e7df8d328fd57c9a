"""Exact dense linear-algebra engine.

Statevector evolution, density operators, partial trace, post-selection,
spectral decomposition, and exact evaluation of syntheses.  Everything here
is double-precision and serves as ground truth for the rest of the package;
`synthesis_value_exact` also doubles as the default base-case solver for
two-dimensional subproblems (`dnc.a_full` with `base=None`), which evaluates
a synthesis with zero error.

Every dense evolution in the package runs on state tensors through the
kernels below: `apply_gates` (`apply_gate` for one gate), `apply_sandwich`,
`project_zero` and `reduce`.  A state tensor holds one axis of length 2 per
live qubit, listed beside it (`live`), optionally followed by batch axes.
The kernels take qubit axes and never flatten.  `circuit_unitary` shares no
code with the kernels and serves as their independent reference.

`apply_gates` is a sweep that holds only the live qubits.  It runs the gates
in a causal order along the longest axis of the lattice, row by row along
the next-longest one (`sweep_order`), opens a qubit's |0> axis at its first
gate, and closes a qubit the caller marks (projects it on 0 and drops its
axis) right after its last gate.  A qubit the caller pairs is opened instead
as an identity pair, an output axis and an input axis, so the sweep runs
over an operator's columns as it reaches them; a paired qubit no gate
touches is opened at the end.  A shallow circuit then never holds more than
a frontier a few columns wide.  What a sweep does apart from its matrices
(its order, every step's shapes, its peak and its result's qubits) depends
only on its layout: the gates' qubits, the input's shape and the qubits
held, closed and paired.  `_plan` works it out once per layout and keeps it
in a bounded table, so the many pieces of an estimate, and fresh circuits
on a lattice already swept, run on a plan without making it again.

A synthesis has one evaluation, `synthesis_state`: the sweep from |0> (the
M and N qubits that no annotation touches closed), the M projection, the
annotations and the N projection, at live width.  A right child's input
state Y Y^dagger enters as its purification sum_j y_j (x) |j>: the band on
its qubit axes, live from the start, and j on one trailing batch axis,
which no gate touches and every later step carries.  Its squared norm is
`synthesis_value_exact`; `synthesis.cut_data` reduces it to the band state
omega, and with the band paired as N it is the front contraction W.
`blockenc.encoding_block` runs an encoding's gates on wires, with its SWAPs
as relabelings: it pairs the data inputs on their own wires, closes the
wires that end holding ancillas and reads the block from the wires that end
holding the data.
`output_probability` and `reduced_state` close nothing; they hold every
qubit a gate touches, and `reduced_state` traces B out of that state with
`reduce`.  The cap bounds the widest tensor the engine holds, not the
qubits a circuit has: `apply_gates` checks its plan's peak on every call,
from the table or not, and `_open` the widened tensor, each before it
allocates; `reduce` checks its dense output.

Tolerance ladder: 1e-12 for unitarity, 1e-10 for algebraic identities,
1e-8 of slack for positive semidefiniteness.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geomcircuit import Coord, LatticeCircuit, in_lattice

DEFAULT_CAP = 22  # qubits of the widest tensor a sweep may hold (live, paired and batch axes)
PLAN_TABLE_SIZE = 1024  # sweep plans `apply_gates` keeps, by layout; the least recently used goes first


class OracleCapacityError(RuntimeError):
    """Raised when a dense computation would exceed the qubit cap."""


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise OracleCapacityError(f"oracle capacity exceeded: {n} qubits > cap {cap}")


# ---------------------------------------------------------------------------
# state-tensor kernels (one axis of length 2 per qubit, then any batch axes)
# ---------------------------------------------------------------------------


def product_state(n: int, axes=(), block=None) -> np.ndarray:
    """State tensor on n qubits: |0> on every axis but `axes`, which hold `block`.

    The leading len(axes) axes of `block` belong to `axes`, in that order; any
    further axes of `block` become trailing batch axes of the result.
    """
    block = np.ones(()) if block is None else np.asarray(block)
    k = len(axes)
    t = np.zeros([2] * n + list(block.shape[k:]), dtype=complex)
    held = set(axes)
    t[tuple(slice(None) if i in held else 0 for i in range(n))] = block.transpose(
        list(np.argsort(axes)) + list(range(k, block.ndim))
    )
    return t


def _open(t: np.ndarray, live: list, qubits, cap: int = DEFAULT_CAP) -> tuple[np.ndarray, list]:
    """Widen a state tensor on `live` by the qubits of `qubits` it does not
    hold, as |0> axes after the live ones, within the cap; returns (t, live)."""
    idle = [q for q in qubits if q not in live]
    if idle:
        _check_cap(len(live) + len(idle) + ((t.size >> len(live)) - 1).bit_length(), cap)
        t = product_state(len(live) + len(idle), range(len(live)), t)
        live = live + idle
    return t, live


def _step(shape, mshape, axes) -> tuple:
    """How the kernel multiplies a 2^a x 2^len(axes) matrix (`mshape`) into
    `axes` of a tensor of `shape`: (the transpose that moves `axes` first,
    the moved shape, the moved tensor's columns as a 2^len(axes)-row matrix,
    the result's shape)."""
    perm = tuple(axes) + tuple(i for i in range(len(shape)) if i not in axes)
    moved = tuple(shape[i] for i in perm)
    rows, cols = mshape
    rest = math.prod(moved) // cols
    return perm, moved, rest, (2,) * (rows.bit_length() - 1) + moved[len(axes):]  # rows = 2^a


def _gate(t: np.ndarray, m: np.ndarray, step: tuple, front: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The one gate kernel: m multiplied into t as one `_step` says.

    t with the gate's axes moved first is copied into the work buffer
    `front` and m multiplied into `out`: the transpose and product
    np.tensordot forms, so the result is the same to the bit.  It is a view
    of `out` with m's a output axes first, then t's other axes in their order.
    """
    perm, shape, rest, result = step
    rows, cols = m.shape
    moved = front[: cols * rest].reshape(shape)
    np.copyto(moved, t.transpose(perm))
    prod = out[: rows * rest].reshape(rows, rest)
    np.dot(m, moved.reshape(cols, rest), out=prod)
    return prod.reshape(result)


def apply_gate(t: np.ndarray, matrix: np.ndarray, axes: list[int]) -> np.ndarray:
    """Apply a k-qubit gate matrix to the given qubit axes of a state tensor."""
    front, out = (np.empty(t.size, np.result_type(t, complex)) for _ in range(2))
    return np.moveaxis(_gate(t, matrix, _step(t.shape, matrix.shape, axes), front, out), range(len(axes)), axes)


def sweep_order(gates) -> list[int]:
    """Positions of `gates` ((matrix, qubits) pairs in layer order) in the
    order `apply_gates` runs them.

    A causal order: a gate is ready once every earlier gate on one of its
    qubits has run.  Of the ready gates, the one with the smallest
    coordinate along the sweep axis runs first; among equal ones, the one
    with the smallest coordinate along the next-longest axis (so on a ladder
    the gates of a column run row 0 before row 1), then the earlier input
    position.  A gate's coordinates are those of its qubit that comes
    first in that (sweep, next) order.  The sweep axis is the longest axis
    of the box the gates span and the next-longest the one after it, the
    lower axis first among equally long ones.
    """
    import heapq  # here, not at the top: `import dncsim` does not load heapq otherwise

    if len(gates) < 2:
        return list(range(len(gates)))
    waiting = [0] * len(gates)
    after: list[list[int]] = [[] for _ in gates]
    latest = {}
    for i, (_, qs) in enumerate(gates):
        for q in qs:
            if q in latest:
                after[latest[q]].append(i)
                waiting[i] += 1
            latest[q] = i
    per_axis = list(zip(*latest))
    lows = [min(c) for c in per_axis]
    spans = [max(c) - lo for c, lo in zip(per_axis, lows)]
    by_length = sorted(range(len(spans)), key=lambda a: (-spans[a], a))
    axis, nxt = by_length[0], by_length[min(1, len(spans) - 1)]  # nxt = axis on a 1-D lattice
    # one integer rank per qubit, ordered by the sweep coordinate, then the next one
    width = spans[nxt] + 1
    rank = {q: (q[axis] - lows[axis]) * width + q[nxt] - lows[nxt] for q in latest}
    key = [min(map(rank.__getitem__, qs)) for _, qs in gates]
    ready = [(key[i], i) for i in range(len(gates)) if not waiting[i]]
    heapq.heapify(ready)
    order = []
    while ready:
        _, i = heapq.heappop(ready)
        order.append(i)
        for j in after[i]:
            waiting[j] -= 1
            if not waiting[j]:
                heapq.heappush(ready, (key[j], j))
    return order


@functools.lru_cache(maxsize=PLAN_TABLE_SIZE)
def _gate_step(shape: tuple, axes: tuple, opens: tuple, ends: tuple, paired: tuple) -> tuple:
    """(recipe, `_step`) of one gate of a plan, on a tensor of `shape`.

    `axes` are the axes of the gate's qubits that are live, and `opens`,
    `ends` and `paired` say per qubit whether it opens at this gate, closes
    after it and, if it opens, is paired.  The recipe is None when the
    matrix is used as it is, else (its [2] * 2k shape, the index that keeps
    its rows for output 0 where a qubit closes and its columns for input 0
    where one opens unpaired, the transpose that moves the paired inputs to
    the rows after the outputs or None, the 2-D shape).  Equal steps of
    different plans are one object in this table.
    """
    k = len(opens)
    if True in opens or True in ends:
        zero_in = tuple(o and not p for o, p in zip(opens, paired))
        index = tuple(0 if x else slice(None) for x in ends + zero_in)
        rows, first = k - sum(ends), None
        if True in paired:
            ins = [o for o, z in zip(opens, zero_in) if not z]  # the inputs left, True if paired
            moved = [j for j, o in enumerate(ins) if o] + [j for j, o in enumerate(ins) if not o]
            first = tuple(range(rows)) + tuple(rows + j for j in moved)
        mshape = (2 ** (rows + sum(paired)), 2 ** len(axes))
        recipe = ((2,) * (2 * k), index, first, mshape)
    else:
        mshape, recipe = (2**k, 2**k), None
    return recipe, _step(shape, mshape, axes)


@functools.lru_cache(maxsize=PLAN_TABLE_SIZE)
def _plan(layout: tuple, shape: tuple, live: tuple, close: tuple, pairs: tuple) -> tuple:
    """The plan of an `apply_gates` call, from its layout alone: each gate's
    qubits in order, the input's shape, `live`, `close` (in the caller's
    order: a tuple of a few qubits is several times smaller than a
    frozenset) and `pairs` (as items).  It holds no arrays, so one plan
    serves every call on the same layout, whatever the matrices, and it
    does not depend on the cap, so a call that the cap stops leaves a plan
    that a wider cap can run.  Returns (steps, narrow, width, size, live,
    tail):

      steps   (gate position, recipe, `_step`) per gate in `sweep_order`,
              from `_gate_step`;
      narrow  the index that projects on 0 the live qubits closed before the
              first gate (no gate touches them), or None;
      width   the qubits the cap counts: the peak live width, or the result's
              if the untouched pairs make it wider, plus the batch axes;
      size    the amplitudes of each work buffer, at the peak;
      live    the qubits and labels of the result, in axis order;
      tail    per untouched paired qubit, in order, whether it is closed.
    """
    close, pairs = set(close), dict(pairs)
    order = sweep_order([(None, qs) for qs in layout])
    last = {q: step for step, i in enumerate(order) for q in layout[i]}
    idle_pairs = [q for q in pairs if q not in last and q not in live]
    idle = [q in close and q not in last for q in live]
    narrow = tuple(0 if x else slice(None) for x in idle) if any(idle) else None
    extra = shape[len(live):]  # the batch axes, after the qubits
    live = [q for q, x in zip(live, idle) if not x]
    peak, steps = len(live), []
    for step, i in enumerate(order):
        qs = layout[i]
        opens = tuple(q not in live for q in qs)
        ends = tuple(q in close and last[q] == step for q in qs)
        paired = tuple(o and q in pairs for q, o in zip(qs, opens))
        old = [q for q, o in zip(qs, opens) if not o]
        axes = tuple(live.index(q) for q in old)
        steps.append((i,) + _gate_step((2,) * len(live) + extra, axes, opens, ends, paired))
        # the gate's open outputs, then its paired inputs, then the other live qubits
        live = [q for q, e in zip(qs, ends) if not e] + [pairs[q] for q, p in zip(qs, paired) if p] + [
            q for q in live if q not in old]
        peak = max(peak, len(live))
    end = len(live) + sum(2 - (q in close) for q in idle_pairs)  # with the untouched pairs opened
    for q in idle_pairs:
        live = ([pairs[q]] if q in close else [q, pairs[q]]) + live
    batch = math.prod(extra)
    width = max(peak, end) + (batch - 1).bit_length()
    return tuple(steps), narrow, width, batch << peak, tuple(live), tuple(q in close for q in idle_pairs)


def apply_gates(t: np.ndarray, gates, live, close=(), pairs=None, cap: int = DEFAULT_CAP) -> tuple[np.ndarray, list]:
    """Run gates on the live qubits of a state tensor; returns (t, live).

    `t` holds the qubits `live` (lattice coordinates) on its leading axes,
    in that order, then any batch axes; every other qubit is |0> and not
    held.  `gates` are (matrix, qubits) pairs in layer order, run in
    `sweep_order`:

      open   a qubit not yet live gets its axis at its first gate (the gate's
             columns for input 0 act on the narrower state);
      pair   a qubit that `pairs` maps to a label is opened instead as an
             identity pair: the gate's input index for it becomes a new axis,
             listed under that label, which no later gate touches (the
             columns of an operator, opened one qubit at a time);
      close  each qubit in `close` is projected on 0 and dropped right after
             its last gate (only the gate's rows for output 0 are formed), or
             before the first gate if it is live and no gate touches it.

    A paired qubit that no gate touches is opened after the last gate, on
    the leading axes: as an identity pair (its output axis, then its label),
    or, if it is also closed, as its |0> row [1, 0] under its label alone.

    The result holds the returned qubits and labels on its leading axes, then
    the batch axes.  Every gate goes through the one kernel `_gate` and two
    work buffers, allocated once per call at the peak live width (a fresh
    pair per gate spends about a third of a dense evaluation faulting in
    pages).  Everything but the matrices is fixed by the plan (`_plan`): the
    order, each step's transpose and shapes, where a gate's matrix is sliced
    (only where one of its qubits opens, closes or pairs), the peak and the
    result's qubits.  The plan outlives the call: it is kept in a table keyed
    by the layout, so a fresh circuit on a layout already swept is planned
    no more (the table keeps the `PLAN_TABLE_SIZE` layouts used last).  The
    result may be a view of a work buffer; the input is never written.  The
    cap bounds the peak, or the result if the untouched pairs make it wider,
    with the batch axes counted as qubits, and every call checks it before
    the buffers are allocated.
    """
    gates = list(gates)
    layout = tuple(tuple(qs) for _, qs in gates)  # a tuple of qubits is its own tuple, not a copy
    steps, narrow, width, size, live, tail = _plan(layout, t.shape, tuple(live), tuple(close),
                                                   tuple((pairs or {}).items()))
    _check_cap(width, cap)
    if narrow is not None:
        t = t[narrow]
    if steps:
        front, out = (np.empty(size, np.result_type(t, complex)) for _ in range(2))
        for i, recipe, step in steps:
            m = gates[i][0]
            if recipe is None:  # C-ordered as a reshape would leave it
                m = np.ascontiguousarray(m)
            else:
                full, index, first, mshape = recipe
                m = m.reshape(full)[index]
                if first is not None:
                    m = m.transpose(first)
                m = m.reshape(mshape)
            t = _gate(t, m, step, front, out)
    for closed in tail:  # no gate touches it: its |0> row if closed, else an identity pair
        t = np.multiply.outer(np.eye(2)[0] if closed else np.eye(2), t)
    return t, list(live)


def apply_sandwich(t: np.ndarray, op, axes: list[int]) -> np.ndarray:
    """Apply a cut operator on `axes`: its dense matrix, or the low-rank
    sum_j coeffs[j] |f_j><f_j| of its factors (shape (2^k, r))."""
    if op.factors is None:
        return apply_gate(t, op.matrix, axes)
    k = len(axes)
    moved = np.moveaxis(t, axes, range(k))
    m = moved.reshape(2**k, -1)
    out = op.factors @ (op.coeffs[:, None] * (op.factors.conj().T @ m))
    return np.moveaxis(out.reshape(moved.shape), range(k), axes)


def project_zero(t: np.ndarray, axes: list[int]) -> np.ndarray:
    """Zero out all amplitudes where any of `axes` is 1 (apply |0><0| there)."""
    if not axes:
        return t
    t = t.copy()
    for a in axes:
        t[(slice(None),) * a + (1,)] = 0.0
    return t


def reduce(t: np.ndarray, keep_axes: list[int], cap: int = DEFAULT_CAP) -> np.ndarray:
    """Density operator on keep_axes obtained by tracing out all other axes.
    The cap bounds its dense 2^k x 2^k output (2k qubits), checked first."""
    k = len(keep_axes)
    _check_cap(2 * k, cap)
    m = np.moveaxis(t, keep_axes, range(k)).reshape(2**k, -1)
    return m @ m.conj().T


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DensityOperator:
    matrix: np.ndarray
    qubits: tuple[Coord, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubits", tuple(tuple(q) for q in self.qubits))
        dim = 2 ** len(self.qubits)
        if m.shape != (dim, dim):
            raise ValueError("matrix must be 2^m x 2^m for the declared qubits")
        # one work buffer serves both checks: m - m^dagger is formed in it
        # (no temporaries), then m + 1e-8 I for the factorization below
        work = np.conjugate(m.T, out=np.empty(m.shape, dtype=complex))
        np.subtract(m, work, out=work)
        if np.abs(work).max() > 1e-10:
            raise ValueError("density operator must be Hermitian to 1e-10")
        tr = float(np.real(np.trace(m)))
        if tr > 1 + 1e-10:
            raise ValueError(f"trace {tr} exceeds 1 + 1e-10")
        # min eigenvalue >= -1e-8 iff m + 1e-8 I has a Cholesky factor, which
        # costs a fraction of eigvalsh and, like it, reads the lower triangle
        np.copyto(work, m)
        work[np.diag_indices(dim)] += 1e-8
        try:
            np.linalg.cholesky(work)
        except np.linalg.LinAlgError:
            # eigvalsh decides a matrix the factorization's rounding leaves
            # at the threshold, and gives the eigenvalue for the message
            w = np.linalg.eigvalsh(m)
            if w.min() < -1e-8:
                raise ValueError(f"matrix not PSD: min eigenvalue {w.min()}") from None

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def _circuit_state(circ: LatticeCircuit, cap: int) -> tuple[np.ndarray, list]:
    """C|0^n> on the qubits its gates touch, as `apply_gates` returns it
    from a scalar: (t, live).  Every other lattice qubit is |0>.  Raises if
    the norm drifts from 1 by more than 1e-12."""
    for _, g in circ.gates():
        for q in g.qubits:
            if not in_lattice(q, circ.dims):
                raise ValueError(f"gate qubit {q} outside the lattice {circ.dims}")
    t, live = apply_gates(np.ones(()), _pairs(circ), [], cap=cap)
    if abs(np.linalg.norm(t) - 1.0) > 1e-12:
        raise AssertionError("statevector norm drifted beyond 1e-12")
    return t, live


def output_probability(circ: LatticeCircuit, x, cap: int = DEFAULT_CAP) -> float:
    """Exact |<x|C|0^n>|^2 at live width; x is a bitstring, its bits in
    `circ.sites()` order, and a 1 on a qubit no gate touches gives 0."""
    bits = [int(b) for b in x]
    if len(bits) != circ.n_qubits:
        raise ValueError(f"bitstring length {len(bits)} != {circ.n_qubits} qubits")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bitstring {x!r} has a bit outside {{0, 1}}")
    bit = dict(zip(circ.sites(), bits))
    t, live = _circuit_state(circ, cap)
    if any(b for q, b in bit.items() if q not in live):
        return 0.0
    return float(abs(t[tuple(bit[q] for q in live)]) ** 2)


def reduced_state(circ: LatticeCircuit, regions, cap: int = DEFAULT_CAP) -> DensityOperator:
    """sigma on M u F: exact partial trace of C|0><0|C^dagger over B.  The
    cap bounds the sweep and the dense 2^|M u F| x 2^|M u F| output (`reduce`)."""
    back = set(regions.back)
    kept = [q for q in circ.sites() if q not in back]
    t, live = _open(*_circuit_state(circ, cap), kept, cap)
    return DensityOperator(reduce(t, [live.index(q) for q in kept], cap), tuple(kept))


def postselect_zero(op: DensityOperator, register) -> DensityOperator:
    """<0_reg| op |0_reg> on the remaining qubits (trace may shrink)."""
    reg = {tuple(q) for q in register}
    missing = reg - set(op.qubits)
    if missing:
        raise ValueError(f"register coordinates {sorted(missing)} not in operator")
    at = tuple(0 if q in reg else slice(None) for q in op.qubits)  # ket axes, then bra axes
    keep = [q for q in op.qubits if q not in reg]
    dim = 2 ** len(keep)
    return DensityOperator(op.matrix.reshape([2] * (2 * len(at)))[at + at].reshape(dim, dim), tuple(keep))


def spectral(op: DensityOperator) -> list[tuple[float, np.ndarray]]:
    """Full orthonormal eigensystem of a Hermitian operator, descending."""
    m = op.matrix
    if np.abs(m - m.conj().T).max() > 1e-10:
        raise ValueError("spectral requires a Hermitian operator")
    w, v = np.linalg.eigh(m)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    recon = (v * w) @ v.conj().T
    if np.abs(recon - m).max() > 1e-9:
        raise AssertionError("eigendecomposition reconstruction error above 1e-9")
    return [(float(w[i]), v[:, i].copy()) for i in range(len(w))]


def circuit_unitary(circ: LatticeCircuit, cap: int = 12) -> np.ndarray:
    """Assemble the full 2^n x 2^n unitary (independent of the vector kernels).

    Embeds each gate by explicit bit-index permutation, so this path shares no
    code with apply_gate; used to cross-check the evolution kernels.
    """
    n = circ.n_qubits
    _check_cap(n, cap)
    order = {q: i for i, q in enumerate(circ.sites())}
    dim = 2**n
    U = np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    for _, g in circ.gates():
        axes = [order[q] for q in g.qubits]
        k = len(axes)
        # split each basis index into (gate bits, rest bits)
        gate_bits = np.zeros(dim, dtype=np.int64)
        for pos, a in enumerate(axes):
            bit = (idx >> (n - 1 - a)) & 1
            gate_bits |= bit << (k - 1 - pos)
        rest = idx.copy()
        for a in axes:
            rest &= ~(1 << (n - 1 - a))
        G = np.zeros((dim, dim), dtype=complex)
        for out_bits in range(2**k):
            out_idx = rest.copy()
            for pos, a in enumerate(axes):
                bit = (out_bits >> (k - 1 - pos)) & 1
                out_idx |= bit << (n - 1 - a)
            G[out_idx, idx] = g.matrix[out_bits, gate_bits]
        U = G @ U
    return U


# ---------------------------------------------------------------------------
# synthesis evaluation
# ---------------------------------------------------------------------------


def _pairs(circ: LatticeCircuit) -> list:
    """The (matrix, qubits) pairs of a circuit's gates, in layer order."""
    return [(g.matrix, g.qubits) for _, g in circ.gates()]


def synthesis_state(s, cap: int = DEFAULT_CAP, pairs=None) -> tuple[np.ndarray, list]:
    """The one evaluation of a synthesis, at live width: (t, live) as
    `apply_gates` returns them.

    The sweep starts from |0>, or from the purification sum_j y_j (x) |j> of
    the synthesis' input state Y Y^dagger (at most one), held from the start
    with its band on qubit axes and j on a trailing batch axis; then M is
    projected on 0, the sandwiches and insertions are applied, and N is
    projected on 0.  L and the batch axis stay, so the squared norm of t is
    the synthesis value and `reduce` traces over them.  An M or N qubit no
    annotation touches is closed after its last gate (it commutes with the
    rest); `pairs` and the cap go to `apply_gates`, so the cap bounds the
    sweep's width, not the lattice.

    It reads the synthesis as a box of its root circuit (`s.pairs()`,
    `s.registers`, `s.ops`), so `live` and `pairs` are in root coordinates:
    a piece is swept in place, without moving a coordinate, and gives the
    tensor its own-frame copy would (the sweep is translation invariant).
    """
    inputs = [op for op in s.ops if op.kind == "input_state"]
    ops = [op for op in s.ops if op.kind != "input_state"]
    held, block = [], np.ones(())
    if len(inputs) > 1:
        raise ValueError(f"a synthesis loads at most one input state, got {len(inputs)}")
    for op in inputs:
        if op.factors is None:
            raise ValueError("an input state is loaded from its factors Y (the state Y Y^dagger)")
        held, block = list(op.qubits), op.factors.reshape([2] * len(op.qubits) + [-1])
    touched = dict.fromkeys(q for op in ops for q in op.project_zero + op.qubits)
    m, n = s.registers
    close = [q for q in m + n if q not in touched]
    t, live = apply_gates(block, s.pairs(), held, close, pairs, cap)
    t, live = _open(t, live, touched, cap)  # annotated qubits no gate has opened
    pos = {q: i for i, q in enumerate(live)}
    t = project_zero(t, [pos[q] for q in m if q in pos])
    for op in ops:
        if op.kind == "insertion":
            t = project_zero(t, [pos[q] for q in op.project_zero])
        elif op.kind != "sandwich":
            raise ValueError(f"unknown cut-op kind {op.kind!r}")
        t = apply_sandwich(t, op, [pos[q] for q in op.qubits])
    return project_zero(t, [pos[q] for q in n if q in pos]), live


def synthesis_value_exact(s, cap: int = DEFAULT_CAP) -> float:
    """Exact <0_N| phi_S |0_N> for a synthesis (cut-operator annotations
    included): the squared norm of `synthesis_state`, which leaves the
    traced registers (L and the purification's batch axis) to be summed here."""
    t, _ = synthesis_state(s, cap)
    return float(np.real(np.vdot(t, t)))
