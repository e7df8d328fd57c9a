"""Exact dense linear-algebra engine.

Statevector evolution, density operators, partial trace, post-selection,
spectral decomposition, and exact evaluation of syntheses.  Everything here
is double-precision and serves as ground truth for the rest of the package;
it also doubles as the base-case solver for two-dimensional subproblems
(`base_exact`), which evaluates a synthesis with zero error.

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
# raw statevector kernels (flat arrays of length 2^n, axis q <-> qubit q)
# ---------------------------------------------------------------------------


def zero_state(n: int) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    return psi


def apply_gate_vec(psi: np.ndarray, matrix: np.ndarray, axes: list[int], n: int) -> np.ndarray:
    """Apply a k-qubit gate matrix to the given axes of a 2^n statevector."""
    k = len(axes)
    t = psi.reshape([2] * n)
    t = np.tensordot(matrix.reshape([2] * (2 * k)), t, axes=(list(range(k, 2 * k)), axes))
    # tensordot puts the gate's output axes first; move them back.
    t = np.moveaxis(t, list(range(k)), axes)
    return t.reshape(-1)


def apply_lowrank_vec(
    psi: np.ndarray, factors: np.ndarray, coeffs: np.ndarray, axes: list[int], n: int
) -> np.ndarray:
    """Apply sum_j coeffs[j] |f_j><f_j| on `axes`; factors has shape (2^k, r)."""
    k = len(axes)
    t = np.moveaxis(psi.reshape([2] * n), axes, range(k))
    m = t.reshape(2**k, -1)
    amps = factors.conj().T @ m
    out = factors @ (coeffs[:, None] * amps)
    t = np.moveaxis(out.reshape([2] * n), range(k), axes)
    return t.reshape(-1)


def apply_sandwich_vec(psi: np.ndarray, op, axes: list[int], n: int) -> np.ndarray:
    """Apply a sandwich annotation (dense matrix or low-rank factors) on `axes`."""
    if op.factors is not None:
        return apply_lowrank_vec(psi, op.factors, op.coeffs, axes, n)
    return apply_gate_vec(psi, op.matrix, axes, n)


def project_zero_vec(psi: np.ndarray, axes: list[int], n: int) -> np.ndarray:
    """Zero out all amplitudes where any of `axes` is 1 (apply |0><0| there)."""
    if not axes:
        return psi
    t = psi.reshape([2] * n).copy()
    for a in axes:
        idx = [slice(None)] * n
        idx[a] = 1
        t[tuple(idx)] = 0.0
    return t.reshape(-1)


def reduce_vec(psi: np.ndarray, keep_axes: list[int], n: int) -> np.ndarray:
    """Density operator on keep_axes obtained by tracing out all other axes."""
    k = len(keep_axes)
    t = np.moveaxis(psi.reshape([2] * n), keep_axes, range(k))
    m = t.reshape(2**k, -1)
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
    return StateVector(zero_state(circ.n_qubits), circ.sites())


def apply_circuit(state: StateVector, circ: LatticeCircuit, cap: int = DEFAULT_CAP) -> StateVector:
    """Return C|psi>.  Norm is preserved to 1e-12 per unitary layer."""
    _check_cap(state.n, cap)
    index = {q: i for i, q in enumerate(state.qubits)}
    for _, g in circ.gates():
        for q in g.qubits:
            if q not in index:
                raise ValueError(f"gate qubit {q} not present in state")
    psi = state.amplitudes
    for _, g in circ.gates():
        psi = apply_gate_vec(psi, g.matrix, [index[q] for q in g.qubits], state.n)
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
    index = {q: i for i, q in enumerate(state.qubits)}
    keep = [q for q in state.qubits if q not in set(regions.back)]
    rho = reduce_vec(state.amplitudes, [index[q] for q in keep], state.n)
    return DensityOperator(rho, tuple(keep))


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
    code with apply_gate_vec; used to cross-check the evolution kernels.
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
    """Statevector of a synthesis just before register projections.

    Returns (psi, qubit order, axis map).  Input-state annotations are loaded
    through purification ancillas (appended after the lattice sites and later
    traced with the L register).
    """
    sites = list(s.gamma.sites())
    input_ops = [op for op in s.cut_ops if op.kind == "input_state"]
    anc: list[Coord] = []
    blocks: list[np.ndarray] = []
    consumed: set[Coord] = set()
    for op in input_ops:
        band = list(op.qubits)
        consumed.update(band)
        w, v = np.linalg.eigh(op.matrix)
        w = np.clip(w, 0.0, None)
        r = len(band)
        a = [(-1 - len(anc) - j,) * len(s.gamma.dims) for j in range(r)]
        anc.extend(a)
        # purified vector on band + ancillas: sum_j sqrt(w_j) |e_j>|j>
        vec = np.zeros((2 ** len(band), 2 ** len(a)), dtype=complex)
        for j in range(min(vec.shape[1], len(w))):
            vec[:, j] = np.sqrt(w[j]) * v[:, j]
        blocks.append(vec.reshape(-1))
    qubits = sites + anc
    n = len(qubits)
    _check_cap(n, cap)
    index = {q: i for i, q in enumerate(qubits)}

    # assemble the initial state: |0> everywhere except purified bands
    psi = zero_state(n)
    if input_ops:
        # build by sequential embedding: start from |0>, write each block
        psi = np.zeros([2] * n, dtype=complex).reshape(-1)
        psi = psi.reshape([2] * n)
        psi[(0,) * n] = 1.0
        psi = psi.reshape(-1)
        a_cursor = len(sites)
        for op, block in zip(input_ops, blocks):
            band = [index[q] for q in op.qubits]
            r = len(op.qubits)
            ancs = list(range(a_cursor, a_cursor + r))
            a_cursor += r
            axes = band + ancs
            t = np.moveaxis(psi.reshape([2] * n), axes, range(len(axes)))
            shape = t.shape
            m = t.reshape(2 ** len(axes), -1)
            # the band+anc block currently holds |0...0>; replace with the vec
            base = m[0].copy()
            m[:] = np.outer(block, base)
            t = m.reshape(shape)
            psi = np.moveaxis(t, range(len(axes)), axes).reshape(-1)

    for _, g in s.gamma.gates():
        psi = apply_gate_vec(psi, g.matrix, [index[q] for q in g.qubits], n)
    return psi, qubits, index


def synthesis_value_exact(s, cap: int = DEFAULT_CAP) -> float:
    """Exact <0_N| phi_S |0_N> for a synthesis (cut-operator annotations included).

    Evaluation order: evolve |0> (with purified band inputs), project the M
    register to 0, apply sandwich/insertion annotations, project N to 0, and
    take the squared norm over the remaining (traced) registers.
    """
    psi, qubits, index = synthesis_state(s, cap=cap)
    n = len(qubits)
    psi = project_zero_vec(psi, [index[q] for q in s.M], n)
    for op in s.cut_ops:
        if op.kind == "input_state":
            continue
        axes = [index[q] for q in op.qubits]
        if op.kind == "sandwich":
            psi = apply_sandwich_vec(psi, op, axes, n)
        elif op.kind == "insertion":
            psi = project_zero_vec(psi, [index[q] for q in op.project_zero], n)
            psi = apply_lowrank_vec(psi, op.factors, op.coeffs, axes, n)
        else:
            raise ValueError(f"unknown cut-op kind {op.kind!r}")
    psi = project_zero_vec(psi, [index[q] for q in s.N], n)
    return float(np.real(np.vdot(psi, psi)))


def base_exact(s, delta: float = 0.0, cap: int = DEFAULT_CAP) -> float:
    """Default base-case solver: exact dense evaluation, zero error."""
    return synthesis_value_exact(s, cap=cap)
