"""Block-encodings of cut states and their powers.

A block-encoding is a unitary circuit whose top-left block (all designated
ancilla qubits post-selected to |0>) equals a target operator up to a scale
alpha and error epsilon.  The constructors here build, for a cut B|M|F of a
lattice circuit C:

  * an exact encoding of sigma = tr_B(C |0><0| C^dagger)        (scale 1),
  * exact encodings of rho_F^k and rho_B^k, rho_F = <0_M|sigma|0_M>,

as products of factors (C^dagger x I)(SWAP)(C x I), one per power, each
factor running C on its own copy registers.  Copy registers are placed on
fresh transverse axes: the stacked layout appends copy planes outward (swap
gates to far planes are then not nearest-neighbor); `interleave` re-places
every copy plane adjacent to its swap partner, which makes all gates
distance-1 and meets the depth budgets 3d (single factor) and (2k+1)d
(k factors, k <= 4).  Factors act on disjoint registers except the shared
data block, so consecutive C^dagger/C blocks of neighboring factors run in
parallel; the realized depth is 2d+1 for one factor and (k+1)d + k in
general.
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
    layout: str

    def __post_init__(self):
        if set(self.ancilla) & set(self.data):
            raise ValueError("ancilla and data registers must be disjoint")


def _plane_pair(i: int, layout: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """(group plane, prime plane) for factor i as (a, b) vectors."""
    if i == 1:
        return (0, 0), (1, 0)
    if layout == "stacked":
        j = i - 1
        return (2 * j, 0), (2 * j + 1, 0)
    table = {2: ((-1, 0), (-2, 0)), 3: ((0, 1), (0, 2)), 4: ((0, -1), (0, -2))}
    return table[i]


def _build(circ: LatticeCircuit, regions: CutRegions, k: int, side: str, layout: str):
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_POWER:
        raise ValueError(
            f"power encodings support k <= {MAX_POWER} with the nearest-neighbor layout"
        )
    if side not in ("F", "B"):
        raise ValueError("side must be 'F' or 'B'")
    back, mid, front = set(regions.back), set(regions.middle), set(regions.front)
    shared = front if side == "F" else back  # data block, stays at the origin plane
    far = back if side == "F" else front  # region whose copies carry the circuit

    planes = [(0, 0)] + [p for i in range(1, k + 1) for p in _plane_pair(i, layout)]
    offa = -min(p[0] for p in planes)
    offb = -min(p[1] for p in planes)
    exta = max(p[0] for p in planes) + offa + 1
    extb = max(p[1] for p in planes) + offb + 1
    dims = tuple(circ.dims) + (exta, extb)

    def embed(q: Coord, plane) -> Coord:
        return tuple(q) + (plane[0] + offa, plane[1] + offb)

    def c_plane(i: int, q: Coord):
        g, p = _plane_pair(i, layout)
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
        g, _ = _plane_pair(i, layout)
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

    # register bookkeeping
    anc: set[Coord] = set()
    for i in range(1, k + 1):
        g, _ = _plane_pair(i, layout)
        anc.update(embed(q, c_plane(i, q)) for q in far | mid | shared)  # the factor's copies
        anc.update(embed(q, g) for q in mid)  # swap partners of the primed middle copies
    data = tuple(embed(q, (0, 0)) for q in sorted(shared))
    return enc_circ, tuple(sorted(anc)), data


def build_sigma_encoding(circ: LatticeCircuit, regions: CutRegions, layout: str = "stacked") -> BlockEncoding:
    """Exact (1, |B u M u F|, 0)-encoding of sigma = tr_B(C|0><0|C^dagger)."""
    enc_circ, anc, _ = _build(circ, regions, 1, "F", layout)
    mid_front = sorted(set(regions.middle) | set(regions.front))
    data = tuple(q + (0, 0) for q in mid_front)
    anc = tuple(q for q in anc if q not in set(data))
    prime = lambda region: tuple(
        q + (1, 0) for q in sorted(region)
    )
    enc_regions = CutRegions(
        regions.back,
        regions.middle,
        regions.front,
        regions.slice_,
        primes=(("M'", prime(regions.middle)), ("F'", prime(regions.front))),
    )
    return BlockEncoding(
        circuit=enc_circ,
        ancilla=anc,
        data=data,
        alpha=1.0,
        epsilon_claim=0.0,
        target=TargetSpec("sigma", circ, enc_regions, 1, "F"),
        layout=layout,
    )


def build_rho_power_encoding(
    circ: LatticeCircuit, regions: CutRegions, k: int, side: str = "F", layout: str = "stacked"
) -> BlockEncoding:
    """Exact (1, k|B u M' u F' u M|, 0)-encoding of rho_F^k (or rho_B^k)."""
    enc_circ, anc, data = _build(circ, regions, k, side, layout)
    return BlockEncoding(
        circuit=enc_circ,
        ancilla=anc,
        data=data,
        alpha=1.0,
        epsilon_claim=0.0,
        target=TargetSpec("rho_power", circ, regions, k, side),
        layout=layout,
    )


def interleave(enc: BlockEncoding) -> BlockEncoding:
    """Re-place copy registers adjacent to their swap partners.

    The result encodes the same operator (same factors, relabeled sites) with
    every gate nearest-neighbor and depth within 3d (single factor) or
    (2k+1)d (k factors).
    """
    t = enc.target
    if t.kind == "sigma":
        out = build_sigma_encoding(t.circuit, t.regions, layout="interleaved")
    else:
        out = build_rho_power_encoding(t.circuit, t.regions, t.k, t.side, layout="interleaved")
    d = t.circuit.depth
    bound = 3 * d if t.k == 1 else (2 * t.k + 1) * d
    if out.circuit.depth > bound:
        raise AssertionError(
            f"interleaved depth {out.circuit.depth} exceeds the budget {bound}"
        )
    bad = [g.qubits for _, g in out.circuit.gates() if g.arity == 2 and linf(*g.qubits) > 1]
    if bad:
        raise AssertionError(f"interleaved circuit still has non-local gates: {bad[:3]}")
    return out


def encoding_block(enc: BlockEncoding, cap: int = oracle.DEFAULT_CAP) -> np.ndarray:
    """Dense matrix <0_anc| U |0_anc> on the data register.

    Only qubits actually touched by gates (plus the declared registers) are
    simulated; idle lattice sites factor out exactly.  All data-basis columns
    are evolved in one pass, as one trailing batch axis of the state tensor.
    """
    used = set(enc.ancilla) | set(enc.data)
    for _, g in enc.circuit.gates():
        used.update(g.qubits)
    used_list = sorted(used)
    n = len(used_list)
    oracle._check_cap(n, cap)
    index = {q: i for i, q in enumerate(used_list)}
    data_axes = [index[q] for q in enc.data]
    nd, dim = len(data_axes), 2 ** len(data_axes)
    t = oracle.product_state(n, data_axes, np.eye(dim).reshape([2] * nd + [dim]))
    t = oracle.apply_gates(t, ((g.matrix, [index[q] for q in g.qubits]) for _, g in enc.circuit.gates()))
    t = np.moveaxis(t, data_axes, range(nd))
    return t[(slice(None),) * nd + (0,) * (n - nd)].reshape(dim, dim)


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
