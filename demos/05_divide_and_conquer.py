"""The full estimator against the dense oracle, across circuit families.

Heavy-slice circuits go through the recursive cut machinery; scrambling
circuits fail the heavy-slice test and correctly return 0 (their true value
is exponentially small).  Traces record every recursive call.
"""

from dncsim import dnc, oracle, synthesis as syn
from dncsim.harness import generate_circuit

FAMILIES = [
    ("identity 16q", {"kind": "identity", "dims": [16, 1, 1], "depth": 1}, {}),
    ("weak 16q d1 ", {"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.15}, {}),
    ("weak 16q d2 ", {"kind": "brickwork", "dims": [16, 1, 1], "depth": 2, "seed": 17, "gates": "weak", "strength": 0.08}, {"z_width": 8, "w0": 13, "Delta": 1}),
    ("product 16q ", {"kind": "product", "dims": [16, 1, 1], "depth": 1, "seed": 3, "strength": 0.2}, {}),
    ("weak 2D 8x2 ", {"kind": "brickwork", "dims": [8, 2, 1], "depth": 1, "seed": 11, "gates": "weak", "strength": 0.1}, {"Delta": 1}),
    ("haar 16q    ", {"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 2, "gates": "haar"}, {}),
    ("x-layer 16q ", {"kind": "x_layer", "dims": [16, 1, 1], "depth": 1}, {}),
]

delta = 0.05
print(f"delta = {delta}, desk profile\n")
for label, spec, overrides in FAMILIES:
    circ = generate_circuit(spec)
    s = syn.synthesis_of_circuit(circ)
    target = oracle.synthesis_value_exact(s, cap=24)
    trace = dnc.TraceNode("run")
    cfg = dnc.DncConfig(profile="desk", overrides=overrides, cap=24)
    est = dnc.a_full(s, None, delta, 3, config=cfg, trace=trace)
    counts = trace.counts_by_kind()
    cuts = counts.get("kappa", 0)
    print(
        f"{label}: oracle={target:.6f} estimate={est:.6f} |err|={abs(est-target):.2e} "
        f"nodes={sum(counts.values()):>3} cuts={cuts}"
    )

# a deeper run: 24 qubits forces a two-level recursion
print("\n24-qubit chain, two recursion levels:")
circ = generate_circuit({"kind": "brickwork", "dims": [24, 1, 1], "depth": 1, "seed": 31, "gates": "weak", "strength": 0.1})
s = syn.synthesis_of_circuit(circ)
trace = dnc.TraceNode("run")
cfg = dnc.DncConfig(profile="desk", cap=24)
est = dnc.a_full(s, None, delta, 3, config=cfg, trace=trace)
target = oracle.synthesis_value_exact(s, cap=24)
internal = [n for n in trace.walk() if n.kind == "a_recursive" and not n.meta.get("stopped")]
print(f"oracle={target:.6f} estimate={est:.6f} |err|={abs(est-target):.2e}")
print(f"internal recursion nodes: {len(internal)} at widths {[n.meta['width'] for n in internal]}")
