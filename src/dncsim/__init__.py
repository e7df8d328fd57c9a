"""Divide-and-conquer estimation of output probabilities of shallow
geometrically-local quantum circuits, with exact dense oracles and
executable error/runtime models."""

from . import blockenc, dnc, errmodel, geomcircuit, harness, oracle, synthesis
from .geomcircuit import LatticeCircuit, Slice, CutRegions, gate, circuit, validate
from .oracle import synthesis_value_exact, output_probability
from .synthesis import Synthesis, synthesis_of_circuit
from .dnc import a_full, a_recursive, schedule, ParameterSchedule

__all__ = [
    "blockenc",
    "dnc",
    "errmodel",
    "geomcircuit",
    "harness",
    "oracle",
    "synthesis",
    "LatticeCircuit",
    "Slice",
    "CutRegions",
    "gate",
    "circuit",
    "validate",
    "synthesis_value_exact",
    "output_probability",
    "Synthesis",
    "synthesis_of_circuit",
    "a_full",
    "a_recursive",
    "schedule",
    "ParameterSchedule",
]

__version__ = "0.1.0"
