import numpy as np
import pytest
from hypothesis import settings

from dncsim import geomcircuit as gc
from dncsim.harness import generate_circuit

# property tests draw the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def chain10_weak():
    return generate_circuit(
        {"kind": "brickwork", "dims": [10], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.15}
    )


@pytest.fixture
def chain10_haar():
    return generate_circuit({"kind": "brickwork", "dims": [10], "depth": 1, "seed": 2, "gates": "haar"})


def brickwork_1d(n, depth, seed, gates="haar", strength=0.1):
    return generate_circuit(
        {"kind": "brickwork", "dims": [n], "depth": depth, "seed": seed, "gates": gates, "strength": strength}
    )


def all_min_width_slices(circ, axis=0):
    """Every slice of the minimal light-cone-separating width along an axis."""
    w = 2 * circ.depth
    length = circ.dims[axis]
    return [gc.Slice(axis, lo, lo + w) for lo in range(0, length - w + 1)]
