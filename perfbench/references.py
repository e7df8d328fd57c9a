"""Reference values computed apart from dncsim's own engines.

Nothing here imports `dncsim.oracle`.  The circuits are read only as data:
their lattice `dims`, `layers`, and each gate's `matrix` and `qubits`.

* `amplitude_sweep`: <0..0|C|0..0> by contracting the gate network one lattice
  column at a time along axis 0 (a transfer-matrix product).  Its cost grows
  with the number of gate legs that cross a column boundary, not with the
  number of qubits, so it serves chains and two-row ladders of any length.
  For a depth-1 brickwork chain it reduces to the product of the pair
  amplitudes <00|G|00>.
* `statevector`: a plain numpy statevector for lattices of at most 16 qubits.
* `sigma_ref` / `rho_power_ref`: the cut state sigma = tr_B |C0><C0| on M u F,
  and rho_F^k or rho_B^k, from that statevector.
"""
from __future__ import annotations

import numpy as np

MAX_STATEVECTOR_QUBITS = 16


def _sites(dims):
    return [tuple(int(c) for c in q) for q in np.ndindex(*dims)]


def amplitude_sweep(circ) -> complex:
    """<0..0|C|0..0>, contracting gates in order of their lowest axis-0 column."""
    # Each qubit's world line is cut into wires by the gates acting on it.
    # Wire ids are fixed first, so the order of contraction below is free.
    current: dict = {}
    wire_count = 0
    gates = []  # (sort key, matrix, in-wire per leg, out-wire per leg)
    for t, layer in enumerate(circ.layers):
        for g in layer:
            ins, outs = [], []
            for q in g.qubits:
                q = tuple(q)
                ins.append(current.get(q))  # None: the qubit still holds |0>
                current[q] = wire_count
                outs.append(wire_count)
                wire_count += 1
            key = (min(q[0] for q in g.qubits), t)
            gates.append((key, np.asarray(g.matrix, dtype=complex), ins, outs))
    final = set(current.values())  # wires closed by <0|

    boundary = np.ones((), dtype=complex)
    open_wires: list[int] = []
    for _, matrix, ins, outs in sorted(gates, key=lambda item: item[0]):
        k = len(ins)
        tensor = matrix.reshape([2] * (2 * k))
        legs = list(outs) + list(ins)
        # close legs fixed to |0> (fresh inputs) or <0| (last gate on a qubit)
        index = []
        kept = []
        for pos, wire in enumerate(legs):
            if wire is None or (pos < k and wire in final):
                index.append(0)
            else:
                index.append(slice(None))
                kept.append(wire)
        tensor = tensor[tuple(index)]
        shared = [w for w in kept if w in open_wires]
        out = [w for w in open_wires if w not in shared] + [w for w in kept if w not in shared]
        ids = {w: i for i, w in enumerate(dict.fromkeys(open_wires + kept))}
        boundary = np.einsum(
            boundary, [ids[w] for w in open_wires],
            tensor, [ids[w] for w in kept],
            [ids[w] for w in out],
        )
        open_wires = out
    if open_wires:
        raise AssertionError(f"sweep left wires {open_wires} open")
    return complex(boundary)


def probability_sweep(circ) -> float:
    return float(abs(amplitude_sweep(circ)) ** 2)


def statevector(circ) -> np.ndarray:
    """C|0..0> as an array of shape [2]*n, axes in row-major site order."""
    sites = _sites(circ.dims)
    n = len(sites)
    if n > MAX_STATEVECTOR_QUBITS:
        raise ValueError(f"{n} qubits exceed the {MAX_STATEVECTOR_QUBITS}-qubit reference")
    axis = {q: i for i, q in enumerate(sites)}
    psi = np.zeros([2] * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for layer in circ.layers:
        for g in layer:
            targets = [axis[tuple(q)] for q in g.qubits]
            k = len(targets)
            fresh = list(range(n, n + k))
            in_labels = list(range(n))
            for pos, a in enumerate(targets):
                in_labels[a] = fresh[pos]
            tensor = np.asarray(g.matrix, dtype=complex).reshape([2] * (2 * k))
            psi = np.einsum(tensor, targets + fresh, psi, in_labels, list(range(n)))
    return psi


def probability_statevector(circ) -> float:
    psi = statevector(circ)
    return float(abs(psi.reshape(-1)[0]) ** 2)


def _reduced(psi: np.ndarray, keep_axes: list[int]) -> np.ndarray:
    n = psi.ndim
    drop = [a for a in range(n) if a not in keep_axes]
    m = np.transpose(psi, keep_axes + drop).reshape(2 ** len(keep_axes), -1)
    return m @ m.conj().T


def _postselect(rho: np.ndarray, n: int, zero_axes: list[int]) -> np.ndarray:
    """<0|rho|0> on `zero_axes` of an n-qubit operator."""
    t = rho.reshape([2] * (2 * n))
    index = [slice(None)] * (2 * n)
    for a in zero_axes:
        index[a] = 0
        index[n + a] = 0
    m = n - len(zero_axes)
    return t[tuple(index)].reshape(2**m, 2**m)


def _regions(circ, sl):
    sites = _sites(circ.dims)
    back = [q for q in sites if q[sl.axis] < sl.lo]
    middle = [q for q in sites if sl.lo <= q[sl.axis] < sl.hi]
    front = [q for q in sites if q[sl.axis] >= sl.hi]
    return sites, back, middle, front


def sigma_ref(circ, sl) -> np.ndarray:
    """tr_B |C0><C0| on M u F, basis in row-major site order."""
    sites, back, _, _ = _regions(circ, sl)
    keep = [i for i, q in enumerate(sites) if q not in set(back)]
    return _reduced(statevector(circ), keep)


def rho_power_ref(circ, sl, k: int, side: str) -> np.ndarray:
    """rho_F^k (side "F") or rho_B^k (side "B"); rho_F = <0_M| tr_B |C0><C0| |0_M>."""
    sites, back, middle, front = _regions(circ, sl)
    traced = set(back) if side == "F" else set(front)
    keep = [i for i, q in enumerate(sites) if q not in traced]
    kept_sites = [sites[i] for i in keep]
    rho = _reduced(statevector(circ), keep)
    zero = [i for i, q in enumerate(kept_sites) if q in set(middle)]
    rho = _postselect(rho, len(kept_sites), zero)
    return np.linalg.matrix_power(rho, k)
