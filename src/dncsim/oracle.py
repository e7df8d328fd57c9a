"""Exact dense linear-algebra engine.

Statevector evolution, density operators, partial trace, post-selection,
spectral decomposition, and exact evaluation of syntheses.  Everything here
is double-precision and serves as ground truth for the rest of the package;
it also doubles as the base-case solver for two-dimensional subproblems
(`base_exact`), which evaluates a synthesis with zero error.

Every dense evolution in the package (here, in `synthesis.cut_data` and in
`blockenc.encoding_block`) runs on state tensors through the four kernels
below: `apply_gate`, `apply_sandwich`, `project_zero` and `reduce`.  A state
tensor of n qubits has one axis of length 2 per qubit, axis i for qubit i,
optionally followed by batch axes (for example one per basis column).  The
kernels take qubit axes and never flatten; `StateVector.amplitudes` is the
only flat form (index bits big-endian in qubit order), converted at that
boundary.  `circuit_unitary` shares no code with the kernels and serves as
their independent reference.

Tolerance ladder: 1e-12 for unitarity, 1e-10 for algebraic identities,
1e-8 of slack for positive semidefiniteness.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geomcircuit import Coord, LatticeCircuit

DEFAULT_CAP = 22


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


def apply_gate(t: np.ndarray, matrix: np.ndarray, axes: list[int]) -> np.ndarray:
    """Apply a k-qubit gate matrix to the given qubit axes of a state tensor."""
    k = len(axes)
    t = np.tensordot(matrix.reshape([2] * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    # tensordot puts the gate's output axes first; move them back.
    return np.moveaxis(t, list(range(k)), axes)


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


def reduce(t: np.ndarray, keep_axes: list[int]) -> np.ndarray:
    """Density operator on keep_axes obtained by tracing out all other axes."""
    k = len(keep_axes)
    m = np.moveaxis(t, keep_axes, range(k)).reshape(2**k, -1)
    return m @ m.conj().T


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StateVector:
    amplitudes: np.ndarray
    qubits: tuple[Coord, ...]

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "qubits", tuple(tuple(q) for q in self.qubits))
        if amp.shape != (2 ** len(self.qubits),):
            raise ValueError("amplitude length must be 2^(number of qubits)")

    @property
    def n(self) -> int:
        return len(self.qubits)


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
        if np.abs(m - m.conj().T).max() > 1e-10:
            raise ValueError("density operator must be Hermitian to 1e-10")
        tr = float(np.real(np.trace(m)))
        if tr > 1 + 1e-10:
            raise ValueError(f"trace {tr} exceeds 1 + 1e-10")
        w = np.linalg.eigvalsh(m)
        if w.min() < -1e-8:
            raise ValueError(f"matrix not PSD: min eigenvalue {w.min()}")

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def basis_state(circ: LatticeCircuit) -> StateVector:
    return StateVector(product_state(circ.n_qubits).reshape(-1), circ.sites())


def apply_circuit(state: StateVector, circ: LatticeCircuit, cap: int = DEFAULT_CAP) -> StateVector:
    """Return C|psi>.  Norm is preserved to 1e-12 per unitary layer."""
    _check_cap(state.n, cap)
    index = {q: i for i, q in enumerate(state.qubits)}
    for _, g in circ.gates():
        for q in g.qubits:
            if q not in index:
                raise ValueError(f"gate qubit {q} not present in state")
    t = state.amplitudes.reshape([2] * state.n)
    for _, g in circ.gates():
        t = apply_gate(t, g.matrix, [index[q] for q in g.qubits])
    psi = t.reshape(-1)
    nrm = np.linalg.norm(psi)
    if abs(nrm - np.linalg.norm(state.amplitudes)) > 1e-12 * max(1.0, nrm):
        raise AssertionError("statevector norm drifted beyond 1e-12")
    return StateVector(psi, state.qubits)


def evolve_zero(circ: LatticeCircuit, cap: int = DEFAULT_CAP) -> StateVector:
    return apply_circuit(basis_state(circ), circ, cap=cap)


def output_probability(circ: LatticeCircuit, x, cap: int = DEFAULT_CAP) -> float:
    """Exact |<x|C|0^n>|^2 by statevector evolution; x is a bitstring."""
    bits = [int(b) for b in x]
    if len(bits) != circ.n_qubits:
        raise ValueError(f"bitstring length {len(bits)} != {circ.n_qubits} qubits")
    psi = evolve_zero(circ, cap=cap).amplitudes
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return float(abs(psi[idx]) ** 2)


def reduced_state(circ: LatticeCircuit, regions, cap: int = DEFAULT_CAP) -> DensityOperator:
    """sigma on M u F: exact partial trace of C|0><0|C^dagger over B."""
    state = evolve_zero(circ, cap=cap)
    back = set(regions.back)
    keep = [i for i, q in enumerate(state.qubits) if q not in back]
    rho = reduce(state.amplitudes.reshape([2] * state.n), keep)
    return DensityOperator(rho, tuple(state.qubits[i] for i in keep))


def postselect_zero(op: DensityOperator, register) -> DensityOperator:
    """<0_reg| op |0_reg> on the remaining qubits (trace may shrink)."""
    reg = {tuple(q) for q in register}
    missing = reg - set(op.qubits)
    if missing:
        raise ValueError(f"register coordinates {sorted(missing)} not in operator")
    n = len(op.qubits)
    keep_axes = [i for i, q in enumerate(op.qubits) if q not in reg]
    drop_axes = [i for i, q in enumerate(op.qubits) if q in reg]
    t = op.matrix.reshape([2] * (2 * n))
    for a in sorted(drop_axes, reverse=True):
        # bra-side axis first so earlier axis numbers stay valid
        t = np.take(t, 0, axis=n + a)
        t = np.take(t, 0, axis=a)
        n -= 1
    keep = [q for q in op.qubits if q not in reg]
    dim = 2 ** len(keep)
    return DensityOperator(t.reshape(dim, dim), tuple(keep))


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


def synthesis_state(s, cap: int = DEFAULT_CAP):
    """State tensor of a synthesis just before register projections.

    Returns (t, qubit order, axis map).  Input-state annotations are loaded
    through purification ancillas (appended after the lattice sites and later
    traced with the L register).
    """
    sites = list(s.gamma.sites())
    anc: list[Coord] = []
    held: list[Coord] = []
    block = np.ones(())
    for op in s.cut_ops:
        if op.kind != "input_state":
            continue
        r = len(op.qubits)
        a = [(-1 - len(anc) - j,) * len(s.gamma.dims) for j in range(r)]
        anc.extend(a)
        held.extend(list(op.qubits) + a)
        # purified vector on band + ancillas: sum_j sqrt(w_j) |e_j>|j>
        w, v = np.linalg.eigh(op.matrix)
        block = np.multiply.outer(block, (v * np.sqrt(np.clip(w, 0.0, None))).reshape([2] * (2 * r)))
    qubits = sites + anc
    _check_cap(len(qubits), cap)
    index = {q: i for i, q in enumerate(qubits)}
    t = product_state(len(qubits), [index[q] for q in held], block)
    for _, g in s.gamma.gates():
        t = apply_gate(t, g.matrix, [index[q] for q in g.qubits])
    return t, qubits, index


def synthesis_value_exact(s, cap: int = DEFAULT_CAP) -> float:
    """Exact <0_N| phi_S |0_N> for a synthesis (cut-operator annotations included).

    Evaluation order: evolve |0> (with purified band inputs), project the M
    register to 0, apply sandwich/insertion annotations, project N to 0, and
    take the squared norm over the remaining (traced) registers.
    """
    t, _, index = synthesis_state(s, cap=cap)
    t = project_zero(t, [index[q] for q in s.M])
    for op in s.cut_ops:
        if op.kind == "input_state":
            continue
        if op.kind == "insertion":
            t = project_zero(t, [index[q] for q in op.project_zero])
        elif op.kind != "sandwich":
            raise ValueError(f"unknown cut-op kind {op.kind!r}")
        t = apply_sandwich(t, op, [index[q] for q in op.qubits])
    t = project_zero(t, [index[q] for q in s.N])
    return float(np.real(np.vdot(t, t)))


def base_exact(s, delta: float = 0.0, cap: int = DEFAULT_CAP) -> float:
    """Default base-case solver: exact dense evaluation, zero error."""
    return synthesis_value_exact(s, cap=cap)
