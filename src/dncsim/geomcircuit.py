"""Circuit IR for rectangular D-dimensional qubit lattices.

Qubits sit at integer coordinates of a rectangular lattice with explicitly
declared side lengths (`dims`).  A circuit is a list of layers; each layer is
a set of 1- or 2-qubit gates with explicit complex matrices.  Two-qubit gates
must act on coordinates at L-infinity distance <= 1 (geometric locality), and
gates within a layer must have disjoint supports.

Conventions used throughout the package:
  * qubit order is row-major over lattice coordinates (np.ndindex order);
  * ancillas introduced by other modules are appended after data qubits.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import warnings
from dataclasses import dataclass, field
from math import sqrt

import numpy as np

Coord = tuple[int, ...]

_S2 = 1.0 / sqrt(2.0)

NAMED_GATES: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


@dataclass(frozen=True, eq=False)
class Gate:
    """A 1- or 2-qubit gate: explicit unitary matrix plus coordinate list."""

    matrix: np.ndarray
    qubits: tuple[Coord, ...]
    name: str | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubits", tuple(tuple(q) for q in self.qubits))
        k = len(self.qubits)
        if k not in (1, 2):
            raise ValueError(f"gates act on 1 or 2 qubits, got {k}")
        if m.shape != (2**k, 2**k):
            raise ValueError(f"matrix shape {m.shape} does not match {k} qubits")

    @property
    def arity(self) -> int:
        return len(self.qubits)


def gate(name_or_matrix, qubits) -> Gate:
    if isinstance(name_or_matrix, str):
        return Gate(NAMED_GATES[name_or_matrix], tuple(qubits), name=name_or_matrix)
    return Gate(np.asarray(name_or_matrix, dtype=complex), tuple(qubits))


@dataclass(frozen=True, eq=False)
class LatticeCircuit:
    """Layered gate list on a rectangular lattice with declared side lengths."""

    dims: tuple[int, ...]
    depth: int
    layers: tuple[tuple[Gate, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(w) for w in self.dims))
        object.__setattr__(self, "layers", tuple(tuple(l) for l in self.layers))

    @property
    def n_qubits(self) -> int:
        return int(np.prod(self.dims))

    def sites(self) -> tuple[Coord, ...]:
        """All lattice coordinates in row-major order (one tuple per circuit)."""
        return self._sites

    @functools.cached_property
    def _sites(self) -> tuple[Coord, ...]:
        return tuple(itertools.product(*map(range, self.dims)))

    def gates(self):
        for t, layer in enumerate(self.layers):
            for g in layer:
                yield t, g

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.dims).encode())
        h.update(str(self.depth).encode())
        for _, g in self.gates():
            h.update(repr(g.qubits).encode())
            h.update(np.ascontiguousarray(g.matrix.round(12)).tobytes())
        return h.hexdigest()


def circuit(dims, layers) -> LatticeCircuit:
    return LatticeCircuit(tuple(dims), len(layers), tuple(tuple(l) for l in layers))


def in_lattice(coord: Coord, dims: tuple[int, ...]) -> bool:
    return len(coord) == len(dims) and all(0 <= c < w for c, w in zip(coord, dims))


def linf(a: Coord, b: Coord) -> int:
    return max(abs(x - y) for x, y in zip(a, b))


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def validate(circ: LatticeCircuit) -> ValidationReport:
    """Check every LatticeCircuit invariant; violations are data, not errors."""
    violations: list[str] = []
    if len(circ.layers) != circ.depth:
        violations.append(
            f"layer count {len(circ.layers)} does not match declared depth {circ.depth}"
        )
    for t, layer in enumerate(circ.layers):
        used: set[Coord] = set()
        for g in layer:
            for q in g.qubits:
                if not in_lattice(q, circ.dims):
                    violations.append(f"layer {t}: coordinate {q} outside lattice {circ.dims}")
            if g.arity == 2 and len(g.qubits[0]) == len(g.qubits[1]):
                if linf(g.qubits[0], g.qubits[1]) > 1:
                    violations.append(
                        f"layer {t}: non-local gate on {g.qubits} "
                        f"(L-inf distance {linf(g.qubits[0], g.qubits[1])} > 1)"
                    )
            overlap = used.intersection(g.qubits)
            if overlap:
                violations.append(
                    f"layer {t}: overlapping supports at {sorted(overlap)}"
                )
            used.update(g.qubits)
            d = np.conj(g.matrix.T) @ g.matrix
            if not np.allclose(d, np.eye(d.shape[0]), atol=1e-10):
                violations.append(f"layer {t}: non-unitary gate on {g.qubits}")
    return ValidationReport(ok=not violations, violations=violations)


def cone_gates(
    circ: LatticeCircuit, seed, direction: str = "forward", among=None
) -> tuple[set[tuple[int, int]], frozenset[Coord]]:
    """Gates causally connected to `seed`, plus the reached coordinate set.

    forward: layers in time order, seeded at the input; backward: reversed.
    Returns ({(layer index, gate index)}, reached coords).  The returned gate
    set G has the property that the circuit factors as (gates not in G applied
    first... or last, per direction) -- see synthesis.causal_split.  `among`,
    a set of gate ids, restricts the cone to the circuit made of those gates.
    """
    reached: set[Coord] = {tuple(q) for q in seed}
    members: set[tuple[int, int]] = set()
    order = range(circ.depth) if direction == "forward" else range(circ.depth - 1, -1, -1)
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward|backward, got {direction!r}")
    for t in order:
        for gi, g in enumerate(circ.layers[t]):
            if (among is None or (t, gi) in among) and reached.intersection(g.qubits):
                members.add((t, gi))
                reached.update(g.qubits)
    return members, frozenset(reached)


def light_cone(circ: LatticeCircuit, seed, direction: str = "forward") -> frozenset[Coord]:
    """All qubits reachable from `seed` through gate supports across layers."""
    for q in seed:
        if not in_lattice(tuple(q), circ.dims):
            raise ValueError(f"seed coordinate {tuple(q)} outside lattice")
    _, reached = cone_gates(circ, seed, direction)
    return reached


@dataclass(frozen=True)
class Slice:
    """Interval [lo, hi) along one lattice axis."""

    axis: int
    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class CutRegions:
    """Back/middle/front partition of the lattice induced by a slice.

    `primes` optionally records copy-register coordinates allocated by the
    block-encoding constructors (keys like "M'", "F'", "B'").
    """

    back: tuple[Coord, ...]
    middle: tuple[Coord, ...]
    front: tuple[Coord, ...]
    slice_: Slice
    primes: tuple[tuple[str, tuple[Coord, ...]], ...] = ()


class CutError(ValueError):
    pass


def cut_regions(circ: LatticeCircuit, sl: Slice, depth: int | None = None) -> CutRegions:
    """Partition lattice sites into B (below), M (slice), F (above).

    Rejects slices narrower than 2d: the middle must be wide enough that no
    gate path connects B and F within the circuit depth.
    """
    d = circ.depth if depth is None else depth
    if not 0 <= sl.axis < len(circ.dims):
        raise CutError(f"slice axis {sl.axis} outside a lattice of {len(circ.dims)} axes")
    if sl.width < 2 * d:
        raise CutError(
            f"insufficient light-cone separation: slice width {sl.width} < 2d = {2 * d}"
        )
    if sl.lo < 0 or sl.hi > circ.dims[sl.axis]:
        raise CutError(f"slice [{sl.lo},{sl.hi}) outside axis of length {circ.dims[sl.axis]}")
    back, middle, front = [], [], []
    for c in circ.sites():
        if c[sl.axis] < sl.lo:
            back.append(c)
        elif c[sl.axis] < sl.hi:
            middle.append(c)
        else:
            front.append(c)
    regions = CutRegions(tuple(back), tuple(middle), tuple(front), sl)
    bset, fset = set(back), set(front)
    for _, g in circ.gates():
        qs = set(g.qubits)
        if qs & bset and qs & fset:
            raise CutError(f"gate on {g.qubits} spans both back and front regions")
    return regions


def enumerate_slices(
    circ: LatticeCircuit, axis: int, slice_width: int, max_gap: int
) -> list[Slice]:
    """Tile the axis with disjoint slices of `slice_width`, spaced by `max_gap`.

    Spacing is edge-to-edge.  Placement starts at coordinate 0 and strides by
    slice_width + max_gap, which yields the maximal count for that stride.
    """
    if slice_width < 2 * circ.depth:
        raise ValueError(
            f"slice_width {slice_width} below light-cone minimum 2d = {2 * circ.depth}"
        )
    if max_gap < 0:
        raise ValueError("max_gap must be >= 0")
    length = circ.dims[axis]
    if length < slice_width:
        warnings.warn(
            f"axis length {length} shorter than slice width {slice_width}; no slices",
            stacklevel=2,
        )
        return []
    out = []
    lo = 0
    while lo + slice_width <= length:
        out.append(Slice(axis, lo, lo + slice_width))
        lo += slice_width + max_gap
    return out


# ---------------------------------------------------------------------------
# JSON circuit files:
# { "dims": [..], "depth": d,
#   "layers": [ [ {"gate": name-or-matrix, "qubits": [[coords], ..]} ] ] }
# Matrices are row-major lists of [re, im] pairs.
# ---------------------------------------------------------------------------


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def circuit_to_json(circ: LatticeCircuit) -> dict:
    layers = []
    for layer in circ.layers:
        layers.append(
            [
                {
                    "gate": g.name if g.name else _matrix_to_json(g.matrix),
                    "qubits": [list(q) for q in g.qubits],
                }
                for g in layer
            ]
        )
    return {"dims": list(circ.dims), "depth": circ.depth, "layers": layers}


def circuit_from_json(data: dict) -> LatticeCircuit:
    layers = []
    for layer in data["layers"]:
        gates = []
        for entry in layer:
            spec = entry["gate"]
            qubits = tuple(tuple(q) for q in entry["qubits"])
            if isinstance(spec, str):
                gates.append(Gate(NAMED_GATES[spec], qubits, name=spec))
            else:
                gates.append(Gate(_matrix_from_json(spec), qubits))
        layers.append(tuple(gates))
    return LatticeCircuit(tuple(data["dims"]), int(data["depth"]), tuple(layers))


def save_circuit(circ: LatticeCircuit, path) -> None:
    with open(path, "w") as f:
        json.dump(circuit_to_json(circ), f)


def load_circuit(path) -> LatticeCircuit:
    with open(path) as f:
        return circuit_from_json(json.load(f))
