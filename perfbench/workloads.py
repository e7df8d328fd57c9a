"""The benchmark's workloads: which circuits each round runs, and how.

A round is a fixed list of operations of three kinds, the ones a user of
dncsim runs: an estimate (`dnc.a_full`), a dense oracle value
(`oracle.synthesis_value_exact`) and a block encoding (build it, evaluate
`blockenc.encoding_block`, and for sigma encodings the oracle's reduced state
it must equal).  Every round of a workload attempts the same operations, so
the share of failed operations is the same in every run.

Generator seeds come from the workload seed, except the chain_scale reach
rungs, whose failure must not depend on it.  This module imports only the
standard library at top level, so `build_round` can be timed from a fresh
interpreter including `import dncsim`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

WORKLOADS = ("chain_scale", "desk_corpus", "dense_verify")

CHAIN_DELTA = 0.1
DESK_DELTAS = (0.1, 0.05)
D2_OVERRIDES = {"z_width": 8, "w0": 13, "Delta": 1}


def derived_seed(seed: int, *path) -> int:
    """A 31-bit generator seed fixed by the workload seed and a label path."""
    text = "/".join(str(p) for p in (seed,) + path)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class Estimate:
    label: str
    spec: dict
    delta: float
    overrides: dict
    timed: bool = True  # counted in estimate_s (the reach rungs are not)
    cap: int = 24
    synthesis: object = None


@dataclass
class OracleEval:
    label: str
    spec: dict
    cap: int
    synthesis: object = None


@dataclass
class Encoding:
    label: str
    spec: dict
    cut: tuple[int, int]  # [lo, hi) along axis 0
    kind: str  # "sigma" | "rho"
    k: int = 1
    side: str = "F"
    cap: int = 24
    circuit: object = None


@dataclass
class Round:
    estimates: list = field(default_factory=list)
    oracles: list = field(default_factory=list)
    encodings: list = field(default_factory=list)


def _weak(dims, depth, seed, strength=0.1):
    return {"kind": "brickwork", "dims": list(dims), "depth": depth, "seed": seed,
            "gates": "weak", "strength": strength}


# ---------------------------------------------------------------------------
# chain_scale: the dense back-region state of cut_data and the size ceiling
# ---------------------------------------------------------------------------


def _chain_scale(seed: int, r: int) -> Round:
    rnd = Round()
    for n in (24, 32, 40):
        spec = _weak((n, 1, 1), 1, derived_seed(seed, "chain", n))
        rnd.estimates.append(Estimate(f"chain[{n},1,1]", spec, CHAIN_DELTA, {}))
    for n in (48, 64, 128):
        spec = _weak((n, 1, 1), 1, n)  # fixed: the rungs fail on every seed
        rnd.estimates.append(Estimate(f"rung[{n},1,1]", spec, CHAIN_DELTA, {}, timed=False))
    # the longest chain the oracle holds at its default cap of 22 qubits
    rnd.oracles.append(OracleEval("oracle[22,1,1]", _weak((22, 1, 1), 1, derived_seed(seed, "oracle")), 22))
    spec = _weak((10,), 1, derived_seed(seed, "encoding"), 0.3)
    rnd.encodings.append(Encoding("sigma[10]", spec, (4, 6), "sigma"))
    for side in "FB":
        rnd.encodings.append(Encoding(f"rho1{side}[10]", spec, (4, 6), "rho", 1, side))
    return rnd


# ---------------------------------------------------------------------------
# desk_corpus: recursion control and many small dense leaves
# ---------------------------------------------------------------------------

# (spec without seed, dnc overrides) in the shape of acceptance criterion 5.
# Overrides None: the circuit's oracle value is taken, but it is not
# estimated.  On Haar brickwork [16,1,1] (d = 1) and [14,1,1] (d = 2) dnc.a_full
# raises SpacingError for some generator seeds (86 of their estimates in 47,820
# seeded rounds): the heavy-slice scan passes with one slice light, that slice
# lies in the central region Z, and Z then holds fewer than Delta heavy slices.
# A failure that depends on the seed would make the share of failed operations
# differ between runs.  The other Haar lattices are shorter than w0, so their
# recursion stops before it selects Z.
_DESK_ESTIMATION = [
    ({"kind": "identity", "dims": [16, 1, 1], "depth": 1}, {}),
    ({"kind": "identity", "dims": [12, 1, 1], "depth": 1}, {}),
    ({"kind": "identity", "dims": [8, 2, 1], "depth": 1}, {"Delta": 1}),
    ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "gates": "weak", "strength": 0.15}, {}),
    ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "gates": "weak", "strength": 0.12}, {}),
    ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "gates": "weak", "strength": 0.15}, {}),
    ({"kind": "brickwork", "dims": [14, 1, 1], "depth": 1, "gates": "weak", "strength": 0.15}, {}),
    ({"kind": "brickwork", "dims": [14, 1, 1], "depth": 1, "gates": "weak", "strength": 0.1}, {}),
    ({"kind": "brickwork", "dims": [12, 1, 1], "depth": 1, "gates": "weak", "strength": 0.2}, {}),
    ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 2, "gates": "weak", "strength": 0.08}, D2_OVERRIDES),
    ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 2, "gates": "weak", "strength": 0.1}, D2_OVERRIDES),
    ({"kind": "product", "dims": [16, 1, 1], "depth": 1, "strength": 0.2}, {}),
    ({"kind": "product", "dims": [14, 1, 1], "depth": 1, "strength": 0.25}, {}),
    ({"kind": "brickwork", "dims": [8, 2, 1], "depth": 1, "gates": "weak", "strength": 0.1}, {"Delta": 1}),
    ({"kind": "brickwork", "dims": [7, 2, 1], "depth": 1, "gates": "weak", "strength": 0.12}, {"Delta": 1}),
    ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "gates": "haar"}, None),
    ({"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "gates": "haar"}, None),
    ({"kind": "brickwork", "dims": [14, 1, 1], "depth": 2, "gates": "haar"}, None),
    ({"kind": "brickwork", "dims": [8, 2, 1], "depth": 1, "gates": "haar"}, {"Delta": 1}),
    ({"kind": "brickwork", "dims": [12, 1, 1], "depth": 1, "gates": "haar"}, {}),
    ({"kind": "x_layer", "dims": [16, 1, 1], "depth": 1}, {}),
    ({"kind": "cluster", "dims": [16, 1, 1], "depth": 2}, D2_OVERRIDES),
    # Delta = 3 runs the sigma-term path (PhiDescriptor.with_insertions)
    ({"kind": "identity", "dims": [20, 1, 1], "depth": 1}, {"Delta": 3}),
    ({"kind": "brickwork", "dims": [20, 1, 1], "depth": 1, "gates": "weak", "strength": 0.1}, {"Delta": 3}),
]

# sigma encodings at every minimal cut, in the shape of acceptance criterion 1
_DESK_ENCODING = (
    [{"kind": "brickwork", "dims": [4 + i % 3], "depth": 1, "gates": "haar"} for i in range(18)]
    + [{"kind": "brickwork", "dims": [4 + i % 3], "depth": 1, "gates": "weak", "strength": 0.3}
       for i in range(12)]
    + [{"kind": "brickwork", "dims": [5 + i % 2], "depth": 2, "gates": "haar"} for i in range(10)]
    + [{"kind": "product", "dims": [6], "depth": 1, "strength": 0.4} for _ in range(6)]
    + [{"kind": "identity", "dims": [6], "depth": 1}, {"kind": "cluster", "dims": [6], "depth": 2}]
)

RANDOM_KINDS = ("brickwork", "product")


def _seeded(spec: dict, seed: int, r: int, tag: str, i: int) -> dict:
    if spec["kind"] not in RANDOM_KINDS:
        return dict(spec)
    return dict(spec, seed=derived_seed(seed, "desk", r, tag, i))


def _desk_corpus(seed: int, r: int) -> Round:
    rnd = Round()
    for i, (base, overrides) in enumerate(_DESK_ESTIMATION):
        spec = _seeded(base, seed, r, "estimate", i)
        label = "{}[{}]d{}#{}".format(spec["kind"], ",".join(map(str, spec["dims"])), spec["depth"], i)
        # harness.run_experiment: one oracle value per circuit, then every delta
        rnd.oracles.append(OracleEval(label, spec, 24))
        if overrides is None:
            continue
        for delta in DESK_DELTAS:
            rnd.estimates.append(Estimate(f"{label}@{delta}", spec, delta, dict(overrides)))
    for i, base in enumerate(_DESK_ENCODING):
        spec = _seeded(base, seed, r, "encoding", i)
        width = 2 * spec["depth"]
        for lo in range(spec["dims"][0] - width + 1):
            rnd.encodings.append(Encoding(f"sigma#{i}@{lo}", spec, (lo, lo + width), "sigma"))
    return rnd


# ---------------------------------------------------------------------------
# dense_verify: the verification path, dense evolution at 22 qubits
# ---------------------------------------------------------------------------

# (lattice, cut, powers) of acceptance criterion 1's power encodings
_POWER_CASES = [
    ({"kind": "brickwork", "dims": [4], "depth": 1, "gates": "haar"}, (1, 3), (1, 2, 3)),
    ({"kind": "brickwork", "dims": [4], "depth": 1, "gates": "weak"}, (1, 3), (1, 2, 3)),
    ({"kind": "brickwork", "dims": [5], "depth": 1, "gates": "haar"}, (2, 4), (1, 2)),
    ({"kind": "brickwork", "dims": [6], "depth": 1, "gates": "haar"}, (2, 4), (1, 2)),
    ({"kind": "brickwork", "dims": [5], "depth": 2, "gates": "haar"}, (0, 4), (1, 2)),
    ({"kind": "product", "dims": [4], "depth": 1, "strength": 0.4}, (1, 3), (1, 2, 3)),
]


def _dense_verify(seed: int, r: int) -> Round:
    rnd = Round()
    dense = [
        (_weak((22, 1, 1), 2, derived_seed(seed, "dense", 2)), {"Delta": 1}),
        (_weak((11, 2, 1), 2, derived_seed(seed, "dense", 3)), D2_OVERRIDES),
    ]
    for spec, overrides in dense:
        label = "[{}]d{}".format(",".join(map(str, spec["dims"])), spec["depth"])
        rnd.oracles.append(OracleEval(label, spec, 24))
        rnd.estimates.append(Estimate(label, spec, CHAIN_DELTA, dict(overrides)))
    lattice = {"kind": "brickwork", "dims": [4, 2], "depth": 1, "gates": "haar",
               "seed": derived_seed(seed, "dense", "sigma")}
    for lo in range(3):
        rnd.encodings.append(Encoding(f"sigma[4,2]@{lo}", lattice, (lo, lo + 2), "sigma"))
    for i, (base, cut, ks) in enumerate(_POWER_CASES):
        spec = dict(base, seed=derived_seed(seed, "dense", "power", i))
        for k in ks:
            for side in "FB":
                rnd.encodings.append(Encoding(f"rho{k}{side}#{i}", spec, cut, "rho", k, side))
    return rnd


_BUILDERS = {"chain_scale": _chain_scale, "desk_corpus": _desk_corpus, "dense_verify": _dense_verify}

# desk_corpus draws fresh circuits every round; the others repeat round 0's
FRESH_EACH_ROUND = {"chain_scale": False, "desk_corpus": True, "dense_verify": False}


def build_round(workload: str, seed: int, r: int) -> Round:
    """Generate, validate and wrap round r's circuits (the work setup_s times)."""
    from dncsim import geomcircuit, harness, synthesis

    rnd = _BUILDERS[workload](seed, r)
    made = {}

    def circuit(spec):
        key = repr(sorted(spec.items()))
        if key not in made:
            circ = harness.generate_circuit(spec)
            report = geomcircuit.validate(circ)
            if not report.ok:
                raise ValueError(f"invalid generated circuit {spec}: {report.violations[:3]}")
            made[key] = circ
        return made[key]

    for op in rnd.estimates + rnd.oracles:
        op.synthesis = synthesis.synthesis_of_circuit(circuit(op.spec))
    for op in rnd.encodings:
        op.circuit = circuit(op.spec)
    return rnd
