"""Cutting a synthesis: cut states, kappa, projectors, sub-syntheses.

A single cut factorizes the value into a left product and a right product,
up to a residual controlled by the sub-dominant spectrum of the cut state.
The right child carries the cut data as a small input state on its boundary
band; the left child carries a small sandwich operator -- both band-local,
which is what lets the recursion cut children again.  Both carry the cut's
operator, the projector onto the cut state's kept eigenvectors, so a product
divides by each cut's kappa once.  T sets kappa = (tr rho^{2T})^{1/(2T)}.
`cut_data` decides a cut once; the children and the middle between two cuts
are built from the CutData it returns.
"""
from dncsim import geomcircuit as gc, oracle, synthesis as syn
from dncsim.harness import generate_circuit

T = 2

for label, spec in [
    ("near-identity", {"kind": "brickwork", "dims": [12], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.15}),
    ("product      ", {"kind": "product", "dims": [12], "depth": 1, "seed": 3, "strength": 0.25}),
    ("scrambling   ", {"kind": "brickwork", "dims": [12], "depth": 2, "seed": 23, "gates": "haar"}),
]:
    circ = generate_circuit(spec)
    s = syn.synthesis_of_circuit(circ)
    sl = gc.Slice(0, 4, 4 + 2 * circ.depth)
    data = syn.cut_data(s, sl, T)
    sp = syn.split_at_cuts(data)
    vL = oracle.synthesis_value_exact(sp.left)
    vR = oracle.synthesis_value_exact(sp.right)
    est = vL * vR / data.kappa
    v = oracle.synthesis_value_exact(s)
    print(
        f"{label}: weight={data.weight:.4f} kappa={data.kappa:.4f} "
        f"rank={int(data.kept.sum())}  v={v:.6f}  split-product={est:.6f}  |diff|={abs(est-v):.2e}"
    )

# two cuts: the left child of cut i, the middle between the cuts (annotated on
# both ends) and the right child of cut j
circ = generate_circuit({"kind": "brickwork", "dims": [14], "depth": 1, "seed": 9, "gates": "weak", "strength": 0.15})
s = syn.synthesis_of_circuit(circ)
i, j = gc.Slice(0, 4, 6), gc.Slice(0, 8, 10)
data_i, data_j = syn.cut_data(s, i, T), syn.cut_data(s, j, T)
middle = syn.middle_between_cuts(data_i, data_j).middle
left, right = syn.split_at_cuts(data_i).left, syn.split_at_cuts(data_j).right
vL, vM, vR = (oracle.synthesis_value_exact(x) for x in (left, middle, right))
est = vL * vM * vR / data_i.kappa / data_j.kappa
print(f"\ntwo-cut product = {est:.6f} vs value {oracle.synthesis_value_exact(s):.6f}")
print(f"middle child annotations: {[op.kind for op in middle.cut_ops]}")

# the reference decomposition: inserted values telescope under the signed sum
t_i = syn.inserted_value(s, [i], T)
t_j = syn.inserted_value(s, [j], T)
t_ij = syn.inserted_value(s, [i, j], T)
print(f"inserted terms: t_i={t_i:.6f} t_j={t_j:.6f} t_ij={t_ij:.6f}")
print(f"t_i + t_j - t_ij = {t_i + t_j - t_ij:.6f}")
