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
import os
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


def _check_spec(spec) -> tuple[str, tuple[int, ...], int, int, float]:
    """(kind, dims, depth, seed, strength) of a generator spec, or
    ScheduleError (a ValueError) for any spec `generate_circuit` cannot
    build; an experiment config calls it when it is built."""
    if not isinstance(spec, dict):
        raise dnc.ScheduleError(f"a circuit entry must be an object, got {spec!r}")
    kind = spec.get("kind")
    seeded = kind in ("product", "brickwork")
    if not seeded and kind not in ("identity", "x_layer", "cluster"):
        raise dnc.ScheduleError(f"unknown circuit kind {kind!r}")
    if seeded and "seed" not in spec:
        raise dnc.ScheduleError("generator seed is mandatory for random circuits")
    try:
        dims = tuple(int(w) for w in spec["dims"])
        depth = int(spec.get("depth", 1))
        seed = int(spec.get("seed", 0))
        strength = float(spec.get("strength", 0.1))
    except (KeyError, TypeError, ValueError):
        raise dnc.ScheduleError(f"generator spec {spec!r} needs dims, a list of integers, integer "
                                f"depth and seed, and a number strength") from None
    if any(w < 1 for w in dims) or depth < 1 or seed < 0:
        raise dnc.ScheduleError("dims must be positive, depth >= 1 and seed >= 0")
    if kind == "brickwork" and spec.get("gates", "haar") not in ("haar", "weak"):
        raise dnc.ScheduleError(f"unknown brickwork gate family {spec['gates']!r}")
    return kind, dims, depth, seed, strength


def generate_circuit(spec: dict) -> LatticeCircuit:
    """Build a seeded geometrically-local layered circuit from a generator spec.

    spec keys: kind (identity | x_layer | product | brickwork | cluster),
    dims, depth, seed (mandatory for random kinds), strength (weak kinds),
    gates ("haar" | "weak" for brickwork).  A spec `_check_spec` rejects
    raises ScheduleError.
    """
    kind, dims, depth, seed, strength = _check_spec(spec)
    sites = [tuple(q) for q in np.ndindex(*dims)]

    if kind == "identity":
        return LatticeCircuit(dims, depth, tuple(() for _ in range(depth)))
    if kind == "x_layer":
        layer = tuple(Gate(NAMED_GATES["X"], (q,), name="X") for q in sites)
        rest = tuple(() for _ in range(depth - 1))
        return LatticeCircuit(dims, depth, (layer,) + rest)

    if kind == "cluster":
        layers = [tuple(Gate(NAMED_GATES["H"], (q,), name="H") for q in sites)]
        layers += [tuple(Gate(NAMED_GATES["CZ"], (a, b), name="CZ") for a, b in pairs)
                   for pairs in _pair_layers(dims, max(1, depth - 1))]
        return LatticeCircuit(dims, len(layers), tuple(layers))

    rng = np.random.default_rng(seed)

    if kind == "product":
        layers = [tuple(Gate(_weak_unitary(rng, 2, strength), (q,)) for q in sites) for _ in range(depth)]
        return LatticeCircuit(dims, depth, tuple(layers))

    # brickwork
    haar = spec.get("gates", "haar") == "haar"
    layers = []
    for pairs in _pair_layers(dims, depth):
        layer = []
        for a, b in pairs:
            m = _haar_unitary(rng, 4) if haar else _weak_unitary(rng, 4, strength)
            layer.append(Gate(np.asarray(m, dtype=complex), (a, b)))
        layers.append(tuple(layer))
    return LatticeCircuit(dims, depth, tuple(layers))


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
        # what the run would reject raises here, before any dense value; overrides are checked as the run starts
        for name, kind in (("circuits", list), ("deltas", list), ("overrides", dict), ("cap", int)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise dnc.ScheduleError(f"{name} must be of type {kind.__name__}, got {value!r}")
        for entry in self.circuits:
            if not (isinstance(entry, dict) and "file" in entry):
                _check_spec(entry)
        paths = [entry["file"] for entry in self.circuits if "file" in entry]  # open() takes an int as a descriptor
        for path in paths + [p for p in (self.output_json, self.output_csv) if p is not None]:
            if not isinstance(path, (str, os.PathLike)):
                raise dnc.ScheduleError(f"a file path must be a string, got {path!r}")
        for delta in self.deltas:
            dnc.check_delta(delta)
        dnc.check_profile(self.profile)
        if self.dim is not None and (isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 2):
            raise dnc.ScheduleError(f"dim must be an integer >= 2, got {self.dim!r}")

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise dnc.ScheduleError(f"an experiment config must be a JSON object, got {type(data).__name__}")
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
            cols = ["label", "n", "delta", "oracle", "estimate", "abs_error", "predicted_bound", "nodes", "wall_time"]
            with open(csv_path, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow(cols)
                for r in self.records:
                    w.writerow([r.get(c) for c in cols])


class _InvalidCircuit(ValueError):
    """A circuit of an experiment fails validation; `violations` says why, each led by its label."""

    def __init__(self, label: str, violations: list[str]):
        super().__init__(f"{label}: invalid circuit: {violations}")
        self.violations = [f"{label}: {v}" for v in violations]


def _load(entry) -> tuple[str, LatticeCircuit]:
    """(label, circuit) of a config entry; one that fails validation raises `_InvalidCircuit`."""
    if "file" in entry:
        label, circ = entry["file"], load_circuit(entry["file"])
    else:
        label = "{}-{}-d{}-s{}".format(entry["kind"], "x".join(map(str, entry["dims"])), entry.get("depth", 1),
                                       entry.get("seed", "-"))
        circ = generate_circuit(entry)
    report = validate(circ)
    if not report.ok:
        raise _InvalidCircuit(label, report.violations)
    return label, circ


def run_experiment(config: ExperimentConfig) -> Report:
    """Run estimator vs oracle for every circuit and delta in the config, once
    all are loaded and valid (the first invalid one raises `_InvalidCircuit`)."""
    records = []
    cfg = dnc.DncConfig(profile=config.profile, overrides=dict(config.overrides), cap=config.cap)
    for label, circ in [_load(entry) for entry in config.circuits]:
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
