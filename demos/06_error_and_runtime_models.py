"""Executable error and runtime models.

The closed-form error bound evaluated at production-scale parameters sits far
below the target accuracy; the geometry-mirroring call-count predictor
matches measured traces node for node.
"""
from dncsim import dnc, errmodel, synthesis as syn
from dncsim.harness import generate_circuit

# error-propagation functions
print("E1(1/4, h=1) =", errmodel.e1(0.25, 1))
print("E2(1, n=16)  =", errmodel.e2(1.0, 16), "= 2^-80")
print("E3(0.08, 3)  =", errmodel.e3(0.08, 3))

# lemma bounds and the closed-form recursion bound at production scale,
# from the paper-profile schedule of a depth-1, D = 3 run
n = 2**10
delta = 0.1
sched = dnc.schedule(n, 1, 3, delta, "paper")
model, eps = sched.error_model(n, 3), sched.eps
b1, b2, b3 = errmodel.script_bounds(model, eps)
print(f"\nper-term bounds at n = 2^10: {b1:.2e} <= {b2:.2e} <= {b3:.2e}")
print(f"recursion error bound: {errmodel.predicted_error(model, eps):.2e}  (target delta = {delta})")

# runtime recurrences: abstract cost and the reported envelope constant
rt = errmodel.predicted_runtime(n ** (1 / 3), 3, 1, 1.0, delta, model)
print(f"\npredicted cost: {rt['cost']:.3e} abstract units")
print(f"recurrence call counts: {rt['counts']}")
print(f"envelope fit constant (reported, never asserted): {rt['envelope']['fit_constant']:.3e}")

# trace conformance: the geometry mirror reproduces measured node counts
print("\ncall-count conformance on desk runs:")
for dims, Delta in (((16, 1, 1), 2), ((20, 1, 1), 3), ((24, 1, 1), 2)):
    circ = generate_circuit({"kind": "identity", "dims": list(dims), "depth": 1})
    s = syn.synthesis_of_circuit(circ)
    trace = dnc.TraceNode("run")
    cfg = dnc.DncConfig(profile="desk", overrides={"Delta": Delta}, cap=24)
    dnc.a_full(s, None, 0.1, 3, config=cfg, trace=trace)
    sched = dnc.schedule(circ.n_qubits, 1, 3, 0.1, "desk", Delta=Delta)
    pred = dnc.expected_node_counts(dims, 1, 3, sched, 0.1)
    got = trace.counts_by_kind()
    got.pop("run")
    print(f"  dims {dims}, Delta {Delta}: predicted == measured: {pred == got} ({sum(got.values())} nodes)")
