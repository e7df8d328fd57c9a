"""Block-encodings of cut states and their powers.

A block-encoding is a unitary circuit whose top-left block (all designated
ancilla qubits post-selected to |0>) equals a target operator up to a scale
alpha and error epsilon.  The constructors here build, for a cut B|M|F of a
lattice circuit C:

  * an exact encoding of sigma = tr_B(C |0><0| C^dagger)        (scale 1),
  * exact encodings of rho_F^k and rho_B^k, rho_F = <0_M|sigma|0_M>,

as products of factors (C^dagger x I)(SWAP)(C x I), one per power, each
factor running C on its own copy registers.  Copy registers sit on two fresh
transverse axes, each factor's pair of copy planes next to its swap partners
(`PLANES`), so every gate is nearest-neighbor.  Factors act on disjoint
registers except the shared data block, so consecutive C^dagger/C blocks of
neighboring factors run in parallel; the realized depth is 2d+1 for one
factor and (k+1)d + k in general.  `_build` checks every encoding it makes
against the depth budget (2k+1)d (3d for one factor) and against any
two-qubit gate at L-infinity distance > 1.

`encoding_block` evaluates an encoding on wires: a SWAP exchanges the
qubits two wires hold and is never multiplied in, so the swap layers cost
no arithmetic, and the cap counts the wires the sweep holds at once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import oracle
from .geomcircuit import (
    NAMED_GATES,
    Coord,
    CutRegions,
    Gate,
    LatticeCircuit,
    linf,
)

MAX_POWER = 4


@dataclass(frozen=True, eq=False)
class TargetSpec:
    kind: str  # "sigma" | "rho_power"
    circuit: LatticeCircuit
    regions: CutRegions
    k: int
    side: str  # "F" | "B"


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    circuit: LatticeCircuit
    ancilla: tuple[Coord, ...]
    data: tuple[Coord, ...]
    alpha: float
    epsilon_claim: float
    target: TargetSpec

    def __post_init__(self):
        if set(self.ancilla) & set(self.data):
            raise ValueError("ancilla and data registers must be disjoint")


# (group plane, prime plane) of factor i as (a, b) vectors on the transverse axes
PLANES = {1: ((0, 0), (1, 0)), 2: ((-1, 0), (-2, 0)), 3: ((0, 1), (0, 2)), 4: ((0, -1), (0, -2))}


def _build(circ: LatticeCircuit, regions: CutRegions, k: int, side: str):
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_POWER:
        raise ValueError(
            f"power encodings support k <= {MAX_POWER} with nearest-neighbor copy planes"
        )
    if side not in ("F", "B"):
        raise ValueError("side must be 'F' or 'B'")
    back, mid, front = set(regions.back), set(regions.middle), set(regions.front)
    shared = front if side == "F" else back  # data block, stays at the origin plane
    far = back if side == "F" else front  # region whose copies carry the circuit

    planes = [(0, 0)] + [p for i in range(1, k + 1) for p in PLANES[i]]
    offa = -min(p[0] for p in planes)
    offb = -min(p[1] for p in planes)
    exta = max(p[0] for p in planes) + offa + 1
    extb = max(p[1] for p in planes) + offb + 1
    dims = tuple(circ.dims) + (exta, extb)

    def embed(q: Coord, plane) -> Coord:
        return tuple(q) + (plane[0] + offa, plane[1] + offb)

    def c_plane(i: int, q: Coord):
        g, p = PLANES[i]
        if q in mid:
            return p
        if q in far:
            return g  # factor 1's group plane is the origin: it reuses the original far block
        return p if i == 1 else g  # shared-region copy: a fresh plane for every factor

    def c_layer(i: int, t: int, dagger: bool):
        src = circ.layers[circ.depth - 1 - t] if dagger else circ.layers[t]
        out = []
        for g in src:
            qs = tuple(embed(q, c_plane(i, q)) for q in g.qubits)
            m = g.matrix.conj().T if dagger else g.matrix
            out.append(Gate(m, qs, name=(g.name + "+") if (g.name and dagger) else g.name))
        return tuple(out)

    def swap_layer(i: int):
        g, _ = PLANES[i]
        out = []
        for q in sorted(mid):
            out.append(Gate(NAMED_GATES["SWAP"], (embed(q, g), embed(q, c_plane(i, q))), name="SWAP"))
        for q in sorted(shared):
            out.append(Gate(NAMED_GATES["SWAP"], (embed(q, (0, 0)), embed(q, c_plane(i, q))), name="SWAP"))
        return tuple(out)

    layers: list[tuple[Gate, ...]] = []
    layers.extend(c_layer(1, t, False) for t in range(circ.depth))
    layers.append(swap_layer(1))
    for i in range(2, k + 1):
        for t in range(circ.depth):
            layers.append(c_layer(i - 1, t, True) + c_layer(i, t, False))
        layers.append(swap_layer(i))
    layers.extend(c_layer(k, t, True) for t in range(circ.depth))

    enc_circ = LatticeCircuit(dims, len(layers), tuple(layers))
    budget = (2 * k + 1) * circ.depth
    if enc_circ.depth > budget:
        raise AssertionError(f"encoding depth {enc_circ.depth} exceeds the budget {budget}")
    bad = [g.qubits for _, g in enc_circ.gates() if g.arity == 2 and linf(*g.qubits) > 1]
    if bad:
        raise AssertionError(f"encoding has non-local gates: {bad[:3]}")

    # register bookkeeping
    anc: set[Coord] = set()
    for i in range(1, k + 1):
        g, _ = PLANES[i]
        anc.update(embed(q, c_plane(i, q)) for q in far | mid | shared)  # the factor's copies
        anc.update(embed(q, g) for q in mid)  # swap partners of the primed middle copies
    data = tuple(embed(q, (0, 0)) for q in sorted(shared))
    return enc_circ, tuple(sorted(anc)), data


def build_sigma_encoding(circ: LatticeCircuit, regions: CutRegions) -> BlockEncoding:
    """Exact (1, |B u M u F|, 0)-encoding of sigma = tr_B(C|0><0|C^dagger)."""
    enc_circ, anc, _ = _build(circ, regions, 1, "F")
    data = tuple(q + (0, 0) for q in sorted(set(regions.middle) | set(regions.front)))
    anc = tuple(sorted(set(anc) - set(data)))
    return BlockEncoding(
        circuit=enc_circ,
        ancilla=anc,
        data=data,
        alpha=1.0,
        epsilon_claim=0.0,
        target=TargetSpec("sigma", circ, regions, 1, "F"),
    )


def build_rho_power_encoding(circ: LatticeCircuit, regions: CutRegions, k: int, side: str = "F") -> BlockEncoding:
    """Exact (1, k|B u M' u F' u M|, 0)-encoding of rho_F^k (or rho_B^k)."""
    enc_circ, anc, data = _build(circ, regions, k, side)
    return BlockEncoding(
        circuit=enc_circ,
        ancilla=anc,
        data=data,
        alpha=1.0,
        epsilon_claim=0.0,
        target=TargetSpec("rho_power", circ, regions, k, side),
    )


def _is_swap(g: Gate) -> bool:
    """Whether g's matrix is exactly SWAP: identity or the name first, then the entries."""
    swap = NAMED_GATES["SWAP"]
    return g.matrix is swap or (g.name == "SWAP" and np.array_equal(g.matrix, swap))


def encoding_block(enc: BlockEncoding, cap: int = oracle.DEFAULT_CAP) -> np.ndarray:
    """Dense matrix <0_anc| U |0_anc> on the data register.

    A live-width sweep over the operator on wires.  The gates are walked in
    layer order with a map from each qubit to the wire that holds it: a
    SWAP exchanges two entries of the map and is never multiplied in (each
    of its entries is 0 or 1, so the values are the matrix product's), and
    every other gate acts on the wires of its qubits.  Each data qubit's
    input is paired on its own wire: opened at the wire's first gate as an
    identity pair, an output axis and an input axis that no later gate
    touches (the input axes index the block's columns).  Each ancilla is
    projected on 0 after the last gate on the wire that holds it at the
    end, and the block's rows are read from the wires that hold the data
    qubits at the end; one that no gate touched is |0> there.  So the state
    never holds more than the sweep's frontier and the data columns it has
    reached, and the cap counts the wires the sweep holds, not the
    registers (`oracle.apply_gates`).  With no data qubits the block is 1x1.
    """
    wire: dict[Coord, Coord] = {}  # a qubit a SWAP has moved -> the wire that holds it
    gates = []
    for _, g in enc.circuit.gates():
        wires = tuple(wire.get(q, q) for q in g.qubits)
        if _is_swap(g):
            wire[g.qubits[0]], wire[g.qubits[1]] = wires[1], wires[0]
        else:
            gates.append((g.matrix, wires))
    cols = {q: i for i, q in enumerate(enc.data)}  # an input axis is labelled by its data position
    close = [wire.get(q, q) for q in enc.ancilla]
    rows = [wire.get(q, q) for q in enc.data]
    t, live = oracle.apply_gates(np.ones(()), gates, [], close, cols, cap)
    t, live = oracle._open(t, live, rows, cap)
    dim = 2 ** len(enc.data)
    axes = [live.index(w) for w in rows] + [live.index(cols[q]) for q in enc.data]
    return t.transpose(axes).reshape(dim, dim)


def _target_operator(t: TargetSpec, cap: int) -> np.ndarray:
    regions = t.regions
    if t.side == "B":  # trace out F instead of B
        regions = replace(regions, back=regions.front, front=regions.back)
    sigma = oracle.reduced_state(t.circuit, regions, cap=cap)
    if t.kind == "sigma":
        return sigma.matrix
    rho = oracle.postselect_zero(sigma, t.regions.middle).matrix
    return np.linalg.matrix_power(rho, t.k)


def verify_encoding(enc: BlockEncoding, cap: int = oracle.DEFAULT_CAP) -> float:
    """Spectral-norm deviation between the claimed operator and the block."""
    target = _target_operator(enc.target, cap)
    block = encoding_block(enc, cap=cap)
    dev = float(np.linalg.norm(target - enc.alpha * block, 2))
    return dev
