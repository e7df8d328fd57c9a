"""Block-encodings of cut states and their powers.

The post-selected block of each constructed unitary equals its target exactly
(scale 1, error 0); every encoding keeps each gate nearest-neighbor within the
depth budgets 3d (one factor) and (2k+1)d (k factors), which the builders
check once per layout, when they make its record.
"""
import numpy as np

from dncsim import blockenc, geomcircuit as gc
from dncsim.harness import generate_circuit

circ = generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 4, "gates": "haar"})
regions = gc.cut_regions(circ, gc.Slice(0, 2, 4))

enc = blockenc.build_sigma_encoding(circ, regions)
print(f"sigma encoding: {len(enc.ancilla)} ancillas, deviation {blockenc.verify_encoding(enc):.2e}")
nn = all(gc.linf(*g.qubits) <= 1 for _, g in enc.circuit.gates() if g.arity == 2)
print(f"depth {enc.circuit.depth} <= 3d = {3*circ.depth}, nearest-neighbor = {nn}")

print(f"{'target':<8} {'k':>2} {'ancillas':>9} {'deviation':>11} {'depth':>6} {'budget':>7}")
for k in (1, 2, 3):
    for side in ("F", "B"):
        small = generate_circuit({"kind": "brickwork", "dims": [4], "depth": 1, "seed": 8, "gates": "haar"})
        reg = gc.cut_regions(small, gc.Slice(0, 1, 3))
        e = blockenc.build_rho_power_encoding(small, reg, k, side=side)
        dev = blockenc.verify_encoding(e, cap=24)
        print(f"rho_{side}^{k:<3} {k:>2} {len(e.ancilla):>9} {dev:>11.2e} {e.circuit.depth:>6} {(2*k+1)*small.depth:>7}")

# corrupt one gate: the verifier notices immediately
layers = [list(l) for l in enc.circuit.layers]
g0 = layers[0][0]
layers[0][0] = gc.Gate(np.eye(g0.matrix.shape[0], dtype=complex), g0.qubits)
bad = blockenc.BlockEncoding(
    circuit=gc.LatticeCircuit(enc.circuit.dims, enc.circuit.depth, tuple(tuple(l) for l in layers)),
    ancilla=enc.ancilla, data=enc.data, alpha=enc.alpha,
    epsilon_claim=enc.epsilon_claim, target=enc.target,
)
print(f"corrupted encoding deviation: {blockenc.verify_encoding(bad):.3f} (>> 0)")
