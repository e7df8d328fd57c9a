"""Circuit generators, experiment runner, and report emission.

Generated circuits are seeded and deterministic: the same generator spec
always yields the same gate list (fingerprint-equal circuits).  Experiments
always run the dense oracle next to the estimator; the report records both
values, the absolute error, and a trace summary per run.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dnc, errmodel, oracle
from .geomcircuit import Gate, LatticeCircuit, NAMED_GATES, load_circuit, validate
from .synthesis import synthesis_of_circuit

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _pair_layers(dims: tuple[int, ...], depth: int):
    """Brickwork pairing: cycle through axes of extent >= 2, alternating parity."""
    axes = [a for a, w in enumerate(dims) if w >= 2]
    if not axes:
        return [[] for _ in range(depth)]
    layers = []
    for t in range(depth):
        axis = axes[t % len(axes)]
        parity = (t // len(axes)) % 2
        pairs = []
        for q in np.ndindex(*dims):
            if q[axis] % 2 == parity and q[axis] + 1 < dims[axis]:
                partner = tuple(c + 1 if k == axis else c for k, c in enumerate(q))
                pairs.append((tuple(q), partner))
        layers.append(pairs)
    return layers


def _weak_unitary(rng: np.random.Generator, dim: int, strength: float) -> np.ndarray:
    """exp(-i strength h) for a random Hermitian h of unit spectral norm."""
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    h /= max(np.linalg.norm(h, 2), 1e-12)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * strength * w)) @ v.conj().T


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unitary: the Q of a complex Gaussian matrix's QR
    decomposition, its columns' phases fixed by the diagonal of R (Mezzadri)."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * (1 / math.sqrt(2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / abs(d))


def generate_circuit(spec: dict) -> LatticeCircuit:
    """Build a seeded geometrically-local layered circuit from a generator spec.

    spec keys: kind (identity | x_layer | product | brickwork | cluster),
    dims, depth, seed (mandatory for random kinds), strength (weak kinds),
    gates ("haar" | "weak" for brickwork).
    """
    dims = tuple(int(w) for w in spec["dims"])
    depth = int(spec.get("depth", 1))
    kind = spec["kind"]
    if any(w < 1 for w in dims) or depth < 1:
        raise ValueError("dims must be positive and depth >= 1")
    sites = [tuple(q) for q in np.ndindex(*dims)]

    if kind == "identity":
        return LatticeCircuit(dims, depth, tuple(() for _ in range(depth)))
    if kind == "x_layer":
        layer = tuple(Gate(NAMED_GATES["X"], (q,), name="X") for q in sites)
        rest = tuple(() for _ in range(depth - 1))
        return LatticeCircuit(dims, depth, (layer,) + rest)

    if kind == "cluster":
        hlayer = tuple(Gate(NAMED_GATES["H"], (q,), name="H") for q in sites)
        layers = [hlayer]
        for pairs in _pair_layers(dims, max(1, depth - 1)):
            layers.append(
                tuple(Gate(NAMED_GATES["CZ"], (a, b), name="CZ") for a, b in pairs)
            )
        return LatticeCircuit(dims, len(layers), tuple(layers))

    if "seed" not in spec:
        raise ValueError("generator seed is mandatory for random circuits")
    rng = np.random.default_rng(int(spec["seed"]))
    strength = float(spec.get("strength", 0.1))

    if kind == "product":
        layers = []
        for _ in range(depth):
            layers.append(
                tuple(Gate(_weak_unitary(rng, 2, strength), (q,)) for q in sites)
            )
        return LatticeCircuit(dims, depth, tuple(layers))

    if kind == "brickwork":
        gates = spec.get("gates", "haar")
        layers = []
        for pairs in _pair_layers(dims, depth):
            layer = []
            for a, b in pairs:
                if gates == "haar":
                    m = _haar_unitary(rng, 4)
                elif gates == "weak":
                    m = _weak_unitary(rng, 4, strength)
                else:
                    raise ValueError(f"unknown brickwork gate family {gates!r}")
                layer.append(Gate(np.asarray(m, dtype=complex), (a, b)))
            layers.append(tuple(layer))
        return LatticeCircuit(dims, depth, tuple(layers))

    raise ValueError(f"unknown circuit kind {kind!r}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    circuits: list  # generator specs or {"file": path}
    deltas: list[float]
    profile: str = "desk"
    dim: int | None = None  # declared dimension (defaults to len(dims))
    overrides: dict = field(default_factory=dict)
    output_json: str | None = None
    output_csv: str | None = None
    cap: int = oracle.DEFAULT_CAP

    def __post_init__(self):
        # a delta, profile or dim the run would reject raises here, before any dense value is computed
        for delta in self.deltas:
            dnc.check_delta(delta)
        dnc.check_profile(self.profile)
        if self.dim is not None and (isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 2):
            raise dnc.ScheduleError(f"dim must be an integer >= 2, got {self.dim!r}")

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise dnc.ScheduleError(f"unsupported config schema_version {version}")
        keys = set(cls.__dataclass_fields__)
        # `base` and `calculus` are retired: they still load and are ignored
        unknown = sorted(set(data) - keys - {"schema_version", "base", "calculus"})
        if unknown:
            raise dnc.ScheduleError(f"unknown experiment config keys: {', '.join(unknown)}")
        return cls(**{k: v for k, v in data.items() if k in keys})


def within_delta(record: dict) -> bool:
    """Whether a run's estimate lies within its delta of the oracle value
    (with 1e-12 of slack for rounding)."""
    return record["abs_error"] <= record["delta"] + 1e-12


@dataclass
class Report:
    schema_version: int
    records: list[dict]

    def all_within_delta(self) -> bool:
        return all(map(within_delta, self.records))

    def to_json(self) -> dict:
        return {"schema_version": self.schema_version, "records": self.records}

    def write(self, json_path=None, csv_path=None) -> None:
        if json_path:
            with open(json_path, "w") as f:
                json.dump(self.to_json(), f, indent=1)
        if csv_path:
            cols = [
                "label",
                "n",
                "delta",
                "oracle",
                "estimate",
                "abs_error",
                "predicted_bound",
                "nodes",
                "wall_time",
            ]
            with open(csv_path, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(cols)
                for r in self.records:
                    w.writerow([r.get(c) for c in cols])


def _load(entry) -> tuple[str, LatticeCircuit]:
    if "file" in entry:
        return entry["file"], load_circuit(entry["file"])
    circ = generate_circuit(entry)
    label = "{}-{}-d{}-s{}".format(
        entry["kind"], "x".join(map(str, entry["dims"])), entry.get("depth", 1),
        entry.get("seed", "-"),
    )
    return label, circ


def run_experiment(config: ExperimentConfig) -> Report:
    """Run estimator vs oracle for every circuit and delta in the config."""
    records = []
    cfg = dnc.DncConfig(profile=config.profile, overrides=dict(config.overrides), cap=config.cap)
    for entry in config.circuits:
        label, circ = _load(entry)
        report = validate(circ)
        if not report.ok:
            raise ValueError(f"{label}: invalid circuit: {report.violations}")
        s = synthesis_of_circuit(circ)
        target = oracle.synthesis_value_exact(s, cap=config.cap)
        for delta in config.deltas:
            trace = dnc.TraceNode("run", {"label": label, "delta": delta})
            D = len(circ.dims) if config.dim is None else config.dim
            t0 = time.perf_counter()
            est = dnc.a_full(s, None, delta, D, config=cfg, trace=trace)
            wall = time.perf_counter() - t0
            n = circ.n_qubits
            sched = dnc.schedule(n, circ.depth, D, delta, cfg.profile, **cfg.overrides)
            counts = trace.counts_by_kind()
            records.append(
                {
                    "label": label,
                    "n": n,
                    "dims": list(circ.dims),
                    "depth": circ.depth,
                    "delta": delta,
                    "oracle": target,
                    "estimate": est,
                    "abs_error": abs(target - est),
                    "predicted_bound": errmodel.predicted_error(sched.error_model(n, D), sched.eps),
                    "nodes": sum(counts.values()),
                    "node_counts": counts,
                    "wall_time": wall,
                    "fingerprint": circ.fingerprint(),
                }
            )
    return Report(SCHEMA_VERSION, records)
