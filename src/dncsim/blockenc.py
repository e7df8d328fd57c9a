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
factor and (k+1)d + k in general.

An encoding's structure depends on its layout only: C's dims, depth, each
gate's qubits per layer and which of its gates are exactly SWAP
(`_is_swap`), the cut regions, k and the side.  `_layout` makes one record
(`Layout`) per layout and keeps it in a bounded table (`LAYOUT_TABLE_SIZE`
layouts, the least recently used first out), as `oracle._plan` does for
sweeps.  A record holds no arrays: each gate that is multiplied in, as its
source in C (layer, index, adjoint or not) in layer order with its wires
after the SWAP relabelling, the closed ancilla wires, the row wires, the
data and ancilla registers, and the encoding's dims and depth.  The checks
against the depth budget (2k+1)d (3d for one factor) and against any
two-qubit gate at L-infinity distance > 1 read positions only, so they run
once per layout, when its record is made; a layout that fails them raises
on every build, since a failure is never stored.  `BlockEncoding.circuit`,
the encoding as a LatticeCircuit, is built when first read.

`encoding_block` evaluates an encoding on wires: a SWAP exchanges the
qubits two wires hold and is never multiplied in, so the swap layers cost
no arithmetic, and the cap counts the wires the sweep holds at once.
"""
from __future__ import annotations

import functools
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
LAYOUT_TABLE_SIZE = 1024  # encoding records `_layout` keeps, by layout; the least recently used goes first


@dataclass(frozen=True, eq=False)
class TargetSpec:
    kind: str  # "sigma" | "rho_power"
    circuit: LatticeCircuit
    regions: CutRegions
    k: int
    side: str  # "F" | "B"


@dataclass(frozen=True, eq=False)
class Layout:
    """An encoding's record, from positions alone (it holds no arrays).

      gates    (source, wires) of each gate that is multiplied in, in layer
               order: source is (layer, index, adjoint) in the source circuit,
               wires the gate's qubits after the SWAP relabelling;
      close    the wires that hold the ancillas after the last gate;
      rows     the wires that hold the data qubits after the last gate;
      data, ancilla  the registers, as qubits of the encoding;
      dims, depth    the encoding's;
      sigma    for rho_F^1, the record of sigma's encoding: the same gates,
               with the middle's copies on the origin plane read as data.
    """

    gates: tuple
    close: tuple
    rows: tuple
    data: tuple[Coord, ...]
    ancilla: tuple[Coord, ...]
    dims: tuple[int, ...]
    depth: int
    sigma: Layout | None = None

    @classmethod
    def of(cls, layers, ancilla, data, dims, sigma=None) -> Layout:
        """The record of the gates `layers`, each a tuple of (source, qubits,
        relabel) per gate.  The gates are walked in layer order with a map
        from each qubit to the wire that holds it: a gate to relabel (a
        SWAP) exchanges two entries of the map, and every other gate acts on
        the wires of its qubits."""
        wire: dict[Coord, Coord] = {}  # a qubit a SWAP has moved -> the wire that holds it
        gates = []
        for layer in layers:
            for source, qs, relabel in layer:
                wires = tuple(wire.get(q, q) for q in qs)
                if relabel:
                    wire[qs[0]], wire[qs[1]] = wires[1], wires[0]
                else:
                    gates.append((source, wires))
        close = tuple(wire.get(q, q) for q in ancilla)
        rows = tuple(wire.get(q, q) for q in data)
        return cls(tuple(gates), close, rows, tuple(data), tuple(ancilla), tuple(dims), len(layers), sigma)


class BlockEncoding:
    """An encoding U of `target` with scale `alpha`: <0_ancilla| U |0_ancilla>
    on the `data` register.

    `encoding_block` reads `layout`, the record, and `source`, the circuit
    whose matrices the record places.  The builders take the record from the
    table and the target's circuit as the source; `circuit`, U as a
    LatticeCircuit, is then built when first read.  A hand-built encoding,
    BlockEncoding(circuit, ancilla, data, alpha, epsilon_claim, target), is
    its own source: its record comes from its own circuit, each gate its own
    source.
    """

    def __init__(self, circuit: LatticeCircuit, ancilla, data, alpha: float, epsilon_claim: float,
                 target: TargetSpec | None):
        if set(ancilla) & set(data):
            raise ValueError("ancilla and data registers must be disjoint")
        layers = tuple(tuple(((t, i, False), g.qubits, _is_swap(g)) for i, g in enumerate(layer))
                       for t, layer in enumerate(circuit.layers))
        self.layout = Layout.of(layers, ancilla, data, circuit.dims)
        self.source, self.alpha, self.epsilon_claim, self.target = circuit, alpha, epsilon_claim, target
        self.__dict__["circuit"] = circuit

    @classmethod
    def _exact(cls, layout: Layout, target: TargetSpec) -> BlockEncoding:
        """The exact encoding (scale 1, error 0) of `target` on its record."""
        enc = cls.__new__(cls)
        enc.layout, enc.source, enc.alpha, enc.epsilon_claim, enc.target = layout, target.circuit, 1.0, 0.0, target
        return enc

    @property
    def ancilla(self) -> tuple[Coord, ...]:
        return self.layout.ancilla

    @property
    def data(self) -> tuple[Coord, ...]:
        return self.layout.data

    @functools.cached_property
    def circuit(self) -> LatticeCircuit:
        t = self.target
        dims, layers, _, _ = _positions(*_key(t.circuit, t.regions, t.k, t.side))
        gates = tuple(tuple(_placed(t.circuit, source, qs) for source, qs, _ in layer) for layer in layers)
        return LatticeCircuit(dims, len(gates), gates)


# (group plane, prime plane) of factor i as (a, b) vectors on the transverse axes
PLANES = {1: ((0, 0), (1, 0)), 2: ((-1, 0), (-2, 0)), 3: ((0, 1), (0, 2)), 4: ((0, -1), (0, -2))}


def _key(circ: LatticeCircuit, regions: CutRegions, k: int, side: str) -> tuple:
    """The layout of an encoding, as `_layout` and `_positions` take it: C's
    dims and depth, each gate's qubits per layer, the (layer, index) of each
    gate `_is_swap` accepts, the regions (back, middle, front), k and side."""
    qubits = tuple(tuple(g.qubits for g in layer) for layer in circ.layers)
    swaps = tuple((t, i) for t, layer in enumerate(circ.layers) for i, g in enumerate(layer) if _is_swap(g))
    return circ.dims, circ.depth, qubits, swaps, (regions.back, regions.middle, regions.front), k, side


def _positions(dims, depth, qubits, swaps, regions, k, side):
    """The encoding of rho^k on a layout (`_key`), as positions: (dims,
    layers, ancilla, data).

    Each layer is a tuple of (source, qubits, relabel) per gate: source is
    (layer, index, adjoint) in C, or None for a SWAP the encoding adds, and
    relabel says whether the gate is a SWAP that `encoding_block` runs as a
    relabelling of two wires: every added SWAP, and each of C's SWAPs
    (`swaps`) where it runs forward.  Its adjoint, a copied matrix named
    "SWAP+", is multiplied in.
    """
    back, mid, front = (set(r) for r in regions)
    shared = front if side == "F" else back  # data block, stays at the origin plane
    far = back if side == "F" else front  # region whose copies carry the circuit
    swaps = set(swaps)

    planes = [(0, 0)] + [p for i in range(1, k + 1) for p in PLANES[i]]
    offa = -min(p[0] for p in planes)
    offb = -min(p[1] for p in planes)
    exta = max(p[0] for p in planes) + offa + 1
    extb = max(p[1] for p in planes) + offb + 1

    @functools.cache  # one object per coordinate, which the record's gates and registers share
    def embed(q: Coord, plane) -> Coord:
        return tuple(q) + (plane[0] + offa, plane[1] + offb)

    def c_plane(i: int, q: Coord):
        g, p = PLANES[i]
        if q in mid:
            return p
        if q in far:
            return g  # factor 1's group plane is the origin: it reuses the original far block
        return p if i == 1 else g  # shared-region copy: a fresh plane for every factor

    def c_layer(i: int, t: int, adjoint: bool):
        s = depth - 1 - t if adjoint else t
        return tuple(((s, j, adjoint), tuple(embed(q, c_plane(i, q)) for q in qs), not adjoint and (s, j) in swaps)
                     for j, qs in enumerate(qubits[s]))

    def swap_layer(i: int):
        g, _ = PLANES[i]
        return tuple((None, (embed(q, g), embed(q, c_plane(i, q))), True) for q in sorted(mid)) + tuple(
            (None, (embed(q, (0, 0)), embed(q, c_plane(i, q))), True) for q in sorted(shared))

    layers = [c_layer(1, t, False) for t in range(depth)]
    layers.append(swap_layer(1))
    for i in range(2, k + 1):
        for t in range(depth):
            layers.append(c_layer(i - 1, t, True) + c_layer(i, t, False))
        layers.append(swap_layer(i))
    layers.extend(c_layer(k, t, True) for t in range(depth))

    anc: set[Coord] = set()
    for i in range(1, k + 1):
        g, _ = PLANES[i]
        anc.update(embed(q, c_plane(i, q)) for q in far | mid | shared)  # the factor's copies
        anc.update(embed(q, g) for q in mid)  # swap partners of the primed middle copies
    data = tuple(embed(q, (0, 0)) for q in sorted(shared))
    return tuple(dims) + (exta, extb), tuple(layers), tuple(sorted(anc)), data


@functools.lru_cache(maxsize=LAYOUT_TABLE_SIZE)
def _layout(dims, depth, qubits, swaps, regions, k, side) -> Layout:
    """The record of rho^k's encoding on a layout (`_key`), checked: it
    raises `AssertionError` on an encoding deeper than its budget or with a
    non-local two-qubit gate.  For k = 1 on side F it carries sigma's record."""
    enc_dims, layers, ancilla, data = _positions(dims, depth, qubits, swaps, regions, k, side)
    budget = (2 * k + 1) * depth
    if len(layers) > budget:
        raise AssertionError(f"encoding depth {len(layers)} exceeds the budget {budget}")
    bad = [qs for layer in layers for _, qs, _ in layer if len(qs) == 2 and linf(*qs) > 1]
    if bad:
        raise AssertionError(f"encoding has non-local gates: {bad[:3]}")
    sigma = None
    if k == 1 and side == "F":
        sigma_data = tuple(q + (0, 0) for q in sorted(set(regions[1]) | set(regions[2])))
        sigma = Layout.of(layers, tuple(sorted(set(ancilla) - set(sigma_data))), sigma_data, enc_dims)
    return Layout.of(layers, ancilla, data, enc_dims, sigma)


def _build(circ: LatticeCircuit, regions: CutRegions, k: int, side: str) -> Layout:
    """The record of rho^k's encoding at a cut, from the table."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_POWER:
        raise ValueError(
            f"power encodings support k <= {MAX_POWER} with nearest-neighbor copy planes"
        )
    if side not in ("F", "B"):
        raise ValueError("side must be 'F' or 'B'")
    return _layout(*_key(circ, regions, k, side))


def build_sigma_encoding(circ: LatticeCircuit, regions: CutRegions) -> BlockEncoding:
    """Exact (1, |B u M u F|, 0)-encoding of sigma = tr_B(C|0><0|C^dagger)."""
    return BlockEncoding._exact(_build(circ, regions, 1, "F").sigma, TargetSpec("sigma", circ, regions, 1, "F"))


def build_rho_power_encoding(circ: LatticeCircuit, regions: CutRegions, k: int, side: str = "F") -> BlockEncoding:
    """Exact (1, k|B u M' u F' u M|, 0)-encoding of rho_F^k (or rho_B^k)."""
    return BlockEncoding._exact(_build(circ, regions, k, side), TargetSpec("rho_power", circ, regions, k, side))


def _is_swap(g: Gate) -> bool:
    """Whether g's matrix is exactly SWAP: identity or the name first, then the entries."""
    swap = NAMED_GATES["SWAP"]
    return g.matrix is swap or (g.name == "SWAP" and np.array_equal(g.matrix, swap))


def _matrix(circ: LatticeCircuit, source) -> np.ndarray:
    """The matrix of a placed gate: its source gate's, or that one's adjoint."""
    t, i, adjoint = source
    m = circ.layers[t][i].matrix
    return m.conj().T if adjoint else m


def _placed(circ: LatticeCircuit, source, qubits) -> Gate:
    """The gate of `_positions` at `qubits`: an added SWAP, or its source
    gate of `circ`, whose adjoint is named with a "+"."""
    if source is None:
        return Gate(NAMED_GATES["SWAP"], qubits, name="SWAP")
    name = circ.layers[source[0]][source[1]].name
    return Gate(_matrix(circ, source), qubits, name=name and (name + "+" if source[2] else name))


def encoding_block(enc: BlockEncoding, cap: int = oracle.DEFAULT_CAP) -> np.ndarray:
    """Dense matrix <0_anc| U |0_anc> on the data register.

    A live-width sweep over the operator on wires, from the encoding's
    record: the source circuit's matrices (the adjoint where the record
    says so) act on the wires the record gives them, in its order, and the
    SWAPs, relabellings of two wires, are never multiplied in (each of
    their entries is 0 or 1, so the values are the matrix product's).  Each
    data qubit's input is paired on its own wire: opened at the wire's first
    gate as an identity pair, an output axis and an input axis that no later
    gate touches (the input axes index the block's columns).  Each ancilla
    is projected on 0 after the last gate on the wire that holds it at the
    end, and the block's rows are read from the wires that hold the data
    qubits at the end; one that no gate touched is |0> there.  So the state
    never holds more than the sweep's frontier and the data columns it has
    reached, and the cap counts the wires the sweep holds, not the
    registers (`oracle.apply_gates`).  With no data qubits the block is 1x1.
    """
    lay = enc.layout
    gates = [(_matrix(enc.source, source), wires) for source, wires in lay.gates]
    cols = {q: i for i, q in enumerate(lay.data)}  # an input axis is labelled by its data position
    t, live = oracle.apply_gates(np.ones(()), gates, [], lay.close, cols, cap)
    t, live = oracle._open(t, live, lay.rows, cap)
    dim = 2 ** len(lay.data)
    axes = [live.index(w) for w in lay.rows] + [live.index(i) for i in range(len(lay.data))]
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
