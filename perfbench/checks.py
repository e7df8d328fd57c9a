"""Output checks.  Each returns None when the output passes, else a message.

Tolerances follow the acceptance suite: an estimate must lie within delta of
the exact value, an oracle value within 1e-10, a sigma block within 1e-10
and a power block within 1e-9 (spectral norm).
"""
from __future__ import annotations

import math

import numpy as np

VALUE_TOL = 1e-10
SIGMA_TOL = 1e-10
POWER_TOL = 1e-9

# circuits whose value the method must reproduce exactly
KNOWN_VALUES = {"identity": 1.0, "x_layer": 0.0}


def check_estimate(est: float, ref: float, delta: float):
    if not math.isfinite(est) or abs(est - ref) > delta:
        return f"estimate {est!r} misses the reference {ref!r} by more than delta = {delta}"
    return None


def check_value(value: float, ref: float, tol: float = VALUE_TOL):
    if not math.isfinite(value) or abs(value - ref) > tol:
        return f"value {value!r} differs from the reference {ref!r} by more than {tol}"
    return None


def check_known(kind: str, value: float, tol: float):
    """An identity circuit gives 1 and an x_layer gives 0, whatever the reference says."""
    if kind in KNOWN_VALUES:
        return check_value(value, KNOWN_VALUES[kind], tol)
    return None


def check_block(block: np.ndarray, ref: np.ndarray, tol: float):
    """Same shape, Hermitian, the target's spectrum, and close to it in norm."""
    block = np.asarray(block)
    if block.shape != ref.shape:
        return f"block shape {block.shape} != reference shape {ref.shape}"
    if not np.all(np.isfinite(block)):
        return "block has non-finite entries"
    skew = float(np.linalg.norm(block - block.conj().T, 2))
    if skew > tol:
        return f"block is not Hermitian: |B - B^dag| = {skew:.3e} > {tol}"
    spec = float(np.max(np.abs(np.linalg.eigvalsh(block) - np.linalg.eigvalsh(ref)), initial=0.0))
    if spec > tol:
        return f"block spectrum differs from the target's by {spec:.3e} > {tol}"
    dev = float(np.linalg.norm(block - ref, 2))
    if dev > tol:
        return f"block differs from the reference by {dev:.3e} > {tol}"
    return None
