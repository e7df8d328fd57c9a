"""Span recording around dncsim's layer boundaries, from outside the package.

`Tracer.install` replaces each listed function at every name its callers look
up (for example both `dnc.cut_data` and `synthesis.cut_data`) with a wrapper
that records a span: name, start, end, parent span, the operation it serves,
and the phase of the run.  Spans stay in memory until `write` at the end.
A few counts are computed from the wrapped calls' arguments: dense qubit
counts, amplitude-gate products and repeated oracle inputs.  Nothing inside
`src/` changes, and an untraced run installs nothing.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import time
from collections import defaultdict

import numpy as np

LEAF_KINDS = ("brute_force", "base", "return_half", "none_heavy")
RECURSION = ("dnc.a_full", "dnc.a_recursive")


def _targets(dncsim):
    """span name -> [(owner, attribute)] at which callers look the function up."""
    from dncsim import blockenc, dnc, geomcircuit, harness, oracle, synthesis

    return {
        "synthesis.cut_data": [(synthesis, "cut_data"), (dnc, "cut_data")],
        "synthesis.split_at_cuts": [(synthesis, "split_at_cuts"), (dnc, "split_at_cuts")],
        "synthesis.with_insertions": [(synthesis.PhiDescriptor, "with_insertions")],
        "dnc.slice_weight_synthesis": [(dnc, "slice_weight_synthesis")],
        "dnc.a_full": [(dnc, "a_full"), (dncsim, "a_full")],
        "dnc.a_recursive": [(dnc, "a_recursive"), (dncsim, "a_recursive")],
        "dnc.heavy_slices": [(dnc, "heavy_slices")],
        "dnc.inclusion_exclusion_combine": [(dnc, "inclusion_exclusion_combine")],
        "oracle.synthesis_value_exact": [(oracle, "synthesis_value_exact"), (dncsim, "synthesis_value_exact")],
        "oracle.synthesis_state": [(oracle, "synthesis_state")],
        "oracle.reduced_state": [(oracle, "reduced_state")],
        "blockenc.encoding_block": [(blockenc, "encoding_block")],
        "geomcircuit.cone_gates": [
            (geomcircuit, "cone_gates"), (dnc, "cone_gates"), (synthesis, "cone_gates"),
        ],
        "harness.generate_circuit": [(harness, "generate_circuit")],
        "geomcircuit.validate": [(geomcircuit, "validate"), (harness, "validate"), (dncsim, "validate")],
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".max_qubits"):
        return "qubits"
    if name.endswith((".calls", ".repeats", "amp_gate_ops")) or name.startswith("dnc.leaf."):
        return "count"
    return "s"


def _dense_qubits(s) -> int:
    """Qubits of the dense state oracle.synthesis_state builds for s."""
    ancillas = sum(len(op.qubits) for op in s.cut_ops if op.kind == "input_state")
    return s.gamma.n_qubits + ancillas


def _gate_count(circ) -> int:
    return sum(len(layer) for layer in circ.layers)


def _synthesis_key(s) -> str:
    """Digest of a synthesis' circuit, register roles and annotations."""
    h = hashlib.sha256()
    h.update(repr((s.gamma.dims, s.L, s.M, s.N)).encode())
    for layer in s.gamma.layers:
        h.update(b"|")
        for g in layer:
            h.update(repr(g.qubits).encode())
            h.update(np.ascontiguousarray(g.matrix).tobytes())
    for op in s.cut_ops:
        h.update(repr((op.kind, op.qubits, op.project_zero)).encode())
        for arr in (op.matrix, op.factors, op.coeffs):
            h.update(b"-" if arr is None else np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _encoding_size(enc) -> tuple[int, int]:
    """(simulated qubits, data qubits) of blockenc.encoding_block(enc)."""
    used = set(enc.ancilla) | set(enc.data)
    for _, g in enc.circuit.gates():
        used.update(g.qubits)
    return len(used), len(enc.data)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, phase, op)
        self.stack = []  # (id, name) of the open spans
        self.phase = "setup"
        self.op = None  # label of the operation being served
        self.counts = defaultdict(float)  # (phase, name) -> count
        self.maxima = defaultdict(int)  # (phase, name) -> max
        self._seen = set()
        self._ids = itertools.count()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer._before(name, args)
            sid = next(tracer._ids)
            parent = tracer.stack[-1] if tracer.stack else (None, None)
            tracer.stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, name, start, end, parent[0], tracer.phase, tracer.op))
            tracer._after(name, before, parent[1])
            return result

        return wrapper

    def _before(self, name, args):
        if name in ("oracle.synthesis_state", "oracle.synthesis_value_exact"):
            s = args[0]
            return _dense_qubits(s), _gate_count(s.gamma), s
        if name == "blockenc.encoding_block":
            return _encoding_size(args[0]), _gate_count(args[0].circuit)
        return None

    def _after(self, name, before, parent_name):
        """Counts for calls that returned (a call refused by the cap builds nothing)."""
        key = self.phase
        if name == "oracle.synthesis_state":
            n, gates, _ = before
            self.counts[key, "oracle.amp_gate_ops"] += 2.0**n * gates
            if parent_name == "synthesis.cut_data":
                self.maxima[key, "synthesis.cut_data.max_qubits"] = max(
                    self.maxima[key, "synthesis.cut_data.max_qubits"], n)
        elif name == "oracle.synthesis_value_exact":
            n, _, s = before
            self.maxima[key, "oracle.synthesis_value_exact.max_qubits"] = max(
                self.maxima[key, "oracle.synthesis_value_exact.max_qubits"], n)
            digest = _synthesis_key(s)
            if digest in self._seen:
                self.counts[key, "oracle.synthesis_value_exact.repeats"] += 1
            self._seen.add(digest)
        elif name == "blockenc.encoding_block":
            (n, data), gates = before
            self.counts[key, "blockenc.encoding_block.amp_gate_ops"] += 2.0 ** (n + data) * gates
            self.maxima[key, "blockenc.encoding_block.max_qubits"] = max(
                self.maxima[key, "blockenc.encoding_block.max_qubits"], n)

    def start_round(self) -> None:
        """Repeats are counted within a round: later rounds may reuse its circuits."""
        self.phase = "measure"
        self._seen.clear()

    def count_leaves(self, trace_root) -> None:
        """Leaf kinds from a dnc.TraceNode returned by an estimate."""
        for node in trace_root.walk():
            if node.kind in LEAF_KINDS:
                self.counts[self.phase, f"dnc.leaf.{node.kind}"] += 1

    # -- wrappers ----------------------------------------------------------

    def install(self, dncsim) -> None:
        for name, places in _targets(dncsim).items():
            wrapper = self._wrap(name, getattr(*places[0]))
            for owner, attr in places:
                setattr(owner, attr, wrapper)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round totals of the spans and counts of the measured rounds."""
        phase = "measure"
        total = defaultdict(float)
        calls = defaultdict(int)
        covered = defaultdict(float)  # span id -> time covered by its children
        spans = [sp for sp in self.spans if sp[5] == phase]
        for sid, name, start, end, parent, _, _ in spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                covered[parent] += end - start
        self_s = sum(end - start - covered[sid]
                     for sid, name, start, end, *_ in spans if name in RECURSION)
        per = lambda x: x / rounds
        out = {
            "synthesis.cut_data.s": per(total["synthesis.cut_data"]),
            "synthesis.cut_data.calls": per(calls["synthesis.cut_data"]),
            "synthesis.cut_data.max_qubits": self.maxima[phase, "synthesis.cut_data.max_qubits"],
            "synthesis.split_at_cuts.s": per(total["synthesis.split_at_cuts"]),
            "synthesis.with_insertions.s": per(total["synthesis.with_insertions"]),
            "dnc.slice_weight_synthesis.s": per(total["dnc.slice_weight_synthesis"]),
            "dnc.self_s": per(self_s),
            "dnc.a_full.calls": per(calls["dnc.a_full"]),
            "dnc.heavy_slices.s": per(total["dnc.heavy_slices"]),
        }
        for kind in LEAF_KINDS:
            out[f"dnc.leaf.{kind}"] = per(self.counts[phase, f"dnc.leaf.{kind}"])
        out.update({
            "dnc.inclusion_exclusion_combine.s": per(total["dnc.inclusion_exclusion_combine"]),
            "oracle.synthesis_value_exact.s": per(total["oracle.synthesis_value_exact"]),
            "oracle.synthesis_value_exact.calls": per(calls["oracle.synthesis_value_exact"]),
            "oracle.synthesis_value_exact.max_qubits":
                self.maxima[phase, "oracle.synthesis_value_exact.max_qubits"],
            "oracle.synthesis_value_exact.repeats":
                per(self.counts[phase, "oracle.synthesis_value_exact.repeats"]),
            "oracle.amp_gate_ops": per(self.counts[phase, "oracle.amp_gate_ops"]),
            "blockenc.encoding_block.s": per(total["blockenc.encoding_block"]),
            "blockenc.encoding_block.calls": per(calls["blockenc.encoding_block"]),
            "blockenc.encoding_block.max_qubits": self.maxima[phase, "blockenc.encoding_block.max_qubits"],
            "blockenc.encoding_block.amp_gate_ops":
                per(self.counts[phase, "blockenc.encoding_block.amp_gate_ops"]),
            "oracle.reduced_state.s": per(total["oracle.reduced_state"]),
            "geomcircuit.cone_gates.s": per(total["geomcircuit.cone_gates"]),
            "geomcircuit.cone_gates.calls": per(calls["geomcircuit.cone_gates"]),
        })
        return out

    def setup_metrics(self) -> dict:
        total = defaultdict(float)
        for _, name, start, end, _, phase, _ in self.spans:
            if phase == "setup":
                total[name] += end - start
        return {
            "harness.generate_circuit.s": total["harness.generate_circuit"],
            "geomcircuit.validate.s": total["geomcircuit.validate"],
        }

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w") as f:
            for sid, name, start, end, parent, phase, op in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "phase": phase, "op": op}) + "\n")
