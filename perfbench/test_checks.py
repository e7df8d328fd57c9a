"""Tests of the benchmark's references and checks.

    python3 -m pytest perfbench -q

Each check must pass on the exact value and fail on a perturbed one, and
the independent references must agree with each other and with values known
in closed form.
"""
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import references as ref  # noqa: E402
import workloads  # noqa: E402
from dncsim import blockenc, geomcircuit as gc, oracle, synthesis  # noqa: E402
from dncsim.harness import generate_circuit  # noqa: E402


def weak(dims, depth, seed, strength=0.2):
    return generate_circuit({"kind": "brickwork", "dims": list(dims), "depth": depth,
                             "seed": seed, "gates": "weak", "strength": strength})


def test_estimate_check_accepts_within_delta_and_rejects_beyond():
    assert checks.check_estimate(0.93, 0.9, 0.05) is None
    assert checks.check_estimate(0.9 + 0.0501, 0.9, 0.05) is not None
    assert checks.check_estimate(0.9 - 0.0501, 0.9, 0.05) is not None
    assert checks.check_estimate(float("nan"), 0.9, 0.05) is not None


def test_value_check_rejects_a_perturbation_above_1e_10():
    assert checks.check_value(0.5 + 5e-11, 0.5) is None
    assert checks.check_value(0.5 + 2e-10, 0.5) is not None


def test_known_values():
    assert checks.check_known("identity", 1.0, 1e-10) is None
    assert checks.check_known("identity", 1.0 - 1e-9, 1e-10) is not None
    assert checks.check_known("x_layer", 0.0, 1e-10) is None
    assert checks.check_known("x_layer", 0.06, 0.05) is not None
    assert checks.check_known("brickwork", 0.3, 1e-10) is None


def test_block_check_rejects_each_kind_of_perturbation():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    target = a @ a.conj().T / 10
    assert checks.check_block(target.copy(), target, 1e-10) is None
    generator = np.zeros((4, 4), complex)
    generator[0, 1] = generator[1, 0] = 1.0
    rotation = expm(1e-6j * generator)  # same spectrum, other eigenvectors
    assert "differs" in checks.check_block(rotation @ target @ rotation.conj().T, target, 1e-9)
    skew = np.zeros((4, 4), complex)
    skew[0, 1] = 1e-8
    assert "Hermitian" in checks.check_block(target + skew, target, 1e-9)
    shifted = target + 1e-8 * np.eye(4)
    assert "spectrum" in checks.check_block(shifted, target, 1e-9)
    assert "shape" in checks.check_block(target[:2, :2], target, 1e-9)


def test_sweep_of_a_depth_1_chain_is_the_product_of_pair_amplitudes():
    circ = weak((12, 1, 1), 1, 3)
    pairs = [g.matrix[0, 0] for g in circ.layers[0]]
    assert abs(ref.amplitude_sweep(circ) - np.prod(pairs)) < 1e-14


@pytest.mark.parametrize("spec", [
    {"kind": "brickwork", "dims": [10, 1, 1], "depth": 2, "seed": 1, "gates": "haar"},
    {"kind": "brickwork", "dims": [6, 2, 1], "depth": 2, "seed": 2, "gates": "haar"},
    {"kind": "brickwork", "dims": [4, 2, 2], "depth": 3, "seed": 3, "gates": "haar"},
    {"kind": "product", "dims": [12, 1, 1], "depth": 2, "seed": 4, "strength": 0.5},
    {"kind": "cluster", "dims": [12, 1, 1], "depth": 2},
])
def test_sweep_statevector_and_oracle_agree(spec):
    circ = generate_circuit(spec)
    sweep = ref.probability_sweep(circ)
    assert abs(sweep - ref.probability_statevector(circ)) < 1e-12
    exact = oracle.synthesis_value_exact(synthesis.synthesis_of_circuit(circ))
    assert checks.check_value(exact, sweep) is None


def test_references_give_the_closed_form_values():
    for kind, value in checks.KNOWN_VALUES.items():
        circ = generate_circuit({"kind": kind, "dims": [16, 1, 1], "depth": 1})
        assert ref.probability_sweep(circ) == pytest.approx(value, abs=1e-15)
        assert ref.probability_statevector(circ) == pytest.approx(value, abs=1e-15)


def test_statevector_reference_refuses_large_lattices():
    with pytest.raises(ValueError):
        ref.statevector(generate_circuit({"kind": "identity", "dims": [17], "depth": 1}))


def test_sigma_and_power_references_match_the_encodings():
    circ = weak((6,), 1, 5, 0.4)
    sl = gc.Slice(0, 2, 4)
    regions = gc.cut_regions(circ, sl)
    block = blockenc.encoding_block(blockenc.build_sigma_encoding(circ, regions))
    assert checks.check_block(block, ref.sigma_ref(circ, sl), checks.SIGMA_TOL) is None
    for side in "FB":
        enc = blockenc.build_rho_power_encoding(circ, regions, 2, side=side)
        power = ref.rho_power_ref(circ, sl, 2, side)
        assert checks.check_block(blockenc.encoding_block(enc, cap=24), power, checks.POWER_TOL) is None
        assert checks.check_block(power + 1e-8 * np.eye(len(power)), power, checks.POWER_TOL) is not None


def test_rounds_repeat_their_operations_and_desk_rounds_share_no_circuits():
    for name in workloads.WORKLOADS:
        a = workloads.build_round(name, 7, 1)
        b = workloads.build_round(name, 8, 2)
        assert [op.label for op in a.estimates + a.oracles + a.encodings] == \
            [op.label for op in b.estimates + b.oracles + b.encodings]
    first = workloads.build_round("desk_corpus", 7, 1)
    second = workloads.build_round("desk_corpus", 7, 2)
    prints = lambda rnd: {op.synthesis.gamma.fingerprint() for op in rnd.estimates
                          if op.spec["kind"] in workloads.RANDOM_KINDS}
    assert not prints(first) & prints(second)
    rungs = lambda seed: [op.spec for op in workloads.build_round("chain_scale", seed, 0).estimates
                          if not op.timed]
    assert rungs(1) == rungs(2)
