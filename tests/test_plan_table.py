"""The table of sweep plans: `oracle.apply_gates` plans a gate layout once.

A plan (`oracle._plan`) depends on the gates' qubits, the input's shape and
the qubits held, closed and paired, never on the matrices or the cap, so a
call on a layout already in the table runs the same products as a call on
an empty table, with that call's own matrices.
"""
import numpy as np
import pytest

from dncsim import oracle
from dncsim.harness import generate_circuit
from dncsim.synthesis import synthesis_of_circuit


def _weak(seed: int, depth: int = 1):
    spec = {"kind": "brickwork", "dims": [16, 1, 1], "depth": depth, "gates": "weak", "strength": 0.15, "seed": seed}
    return synthesis_of_circuit(generate_circuit(spec))


def _unitary(rng, k: int) -> np.ndarray:
    z = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    return np.linalg.qr(z)[0]


def _arrays(x) -> int:
    if isinstance(x, np.ndarray):
        return 1
    return sum(map(_arrays, x)) if isinstance(x, tuple) else 0


def test_a_fresh_circuit_on_a_known_layout_builds_no_plan():
    a, b = _weak(1), _weak(2)  # one layout, other matrices
    oracle.synthesis_value_exact(a)
    misses = oracle._plan.cache_info().misses
    warm = oracle.synthesis_value_exact(b)
    assert oracle._plan.cache_info().misses == misses
    oracle._plan.cache_clear()
    cold = oracle.synthesis_value_exact(b)
    assert warm.hex() == cold.hex()
    assert warm != oracle.synthesis_value_exact(a)
    hits = oracle._plan.cache_info().hits
    plan = oracle._plan(  # the plan of that sweep, which holds no arrays
        tuple(qs for _, qs in b.pairs()), (), (), tuple(b.registers[0] + b.registers[1]), ())
    assert oracle._plan.cache_info().hits == hits + 1
    assert _arrays(plan) == 0


def test_every_call_checks_the_cap_on_the_plan_width_before_it_allocates(monkeypatch):
    s = _weak(3, depth=2)
    oracle._plan.cache_clear()
    with pytest.raises(oracle.OracleCapacityError):
        oracle.synthesis_value_exact(s, cap=1)  # a miss that the cap stops
    assert oracle._plan.cache_info().currsize == 1
    value = oracle.synthesis_value_exact(s)  # the same layout, from the table, at a wider cap
    assert oracle._plan.cache_info().misses == 1

    def runs(cap):
        try:
            oracle.synthesis_value_exact(s, cap=cap)
        except oracle.OracleCapacityError:
            return False
        return True

    width = next(cap for cap in range(1, oracle.DEFAULT_CAP + 1) if runs(cap))
    assert width > 1
    allocated = []
    empty = np.empty
    monkeypatch.setattr(np, "empty", lambda *a, **k: allocated.append(a) or empty(*a, **k))
    with pytest.raises(oracle.OracleCapacityError, match=f"{width} qubits > cap {width - 1}"):
        oracle.synthesis_value_exact(s, cap=width - 1)  # a hit below the plan's width
    assert allocated == []
    assert oracle._plan.cache_info().misses == 1
    monkeypatch.undo()
    oracle._plan.cache_clear()
    assert value.hex() == oracle.synthesis_value_exact(s).hex()


def test_a_warm_table_runs_an_idle_close_with_new_matrices_and_leaves_its_input():
    # four live qubits and a batch axis of 3: (3,) is closed and no gate
    # touches it, so it is projected on 0 before the gates; (0,) is closed
    # after its last gate
    rng = np.random.default_rng(17)
    q = [(i,) for i in range(4)]
    t0 = rng.normal(size=(2,) * 4 + (3,)) + 1j * rng.normal(size=(2,) * 4 + (3,))
    before = t0.copy()
    oracle._plan.cache_clear()
    for call in range(2):  # a miss, then a hit with other matrices
        gates = [(_unitary(rng, 2), (q[0], q[1])), (_unitary(rng, 2), (q[1], q[2])), (_unitary(rng, 1), (q[0],))]
        want = t0[..., 0, :]
        for m, qs in gates:
            k, axes = len(qs), [x for (x,) in qs]
            want = np.tensordot(m.reshape([2] * (2 * k)), want, axes=(list(range(k, 2 * k)), axes))
            want = np.moveaxis(want, list(range(k)), axes)
        want = want[0]  # (0,) projected on 0
        got, live = oracle.apply_gates(t0, gates, q, [q[0], q[3]])
        assert oracle._plan.cache_info().misses == 1
        assert sorted(live) == [q[1], q[2]]
        got = got.transpose([live.index(x) for x in (q[1], q[2])] + [2])
        assert np.abs(got - want).max() < 1e-14
        assert np.array_equal(t0, before)


@pytest.mark.parametrize("closed", [False, True])
def test_a_warm_table_opens_a_paired_qubit_no_gate_touches(closed):
    # the call of test_apply_gates_opens_a_paired_qubit_no_gate_touches,
    # run again on its own plan with a new matrix
    rng = np.random.default_rng(11)
    batch = rng.normal(size=3)
    before = batch.copy()
    q0, q1, q2 = (0,), (1,), (2,)
    oracle._plan.cache_clear()
    for call in range(2):
        u = _unitary(rng, 2)
        t, live = oracle.apply_gates(batch, [(u, (q0, q1))], [], [q2] if closed else [], {q0: "a", q2: "b"})
        assert oracle._plan.cache_info().misses == 1
        block = u.reshape(2, 2, 2, 2)[:, :, :, 0]
        if closed:
            want = np.einsum("xyi,j,z->xyijz", block, [1.0, 0.0], batch)
            got = t.transpose([live.index(x) for x in (q0, q1, "a", "b")] + [4])
        else:
            want = np.einsum("xyi,wj,z->xywijz", block, np.eye(2), batch)
            got = t.transpose([live.index(x) for x in (q0, q1, q2, "a", "b")] + [5])
        assert np.abs(got - want).max() < 1e-15
        assert np.array_equal(batch, before)


def test_the_table_never_holds_more_than_its_bound():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    oracle._plan.cache_clear()
    n = oracle.PLAN_TABLE_SIZE + 10
    for i in range(n):  # n layouts: one gate on qubit (i,)
        t, live = oracle.apply_gates(np.ones(()), [(h, ((i,),))], [])
        assert live == [(i,)] and np.array_equal(t, h[:, 0])
        assert oracle._plan.cache_info().currsize <= oracle.PLAN_TABLE_SIZE
    assert oracle._plan.cache_info().currsize == oracle.PLAN_TABLE_SIZE
    assert oracle._gate_step.cache_info().currsize <= oracle.PLAN_TABLE_SIZE
    misses = oracle._plan.cache_info().misses
    oracle.apply_gates(np.ones(()), [(h, ((n - 1,),))], [])  # the last layout is kept
    assert oracle._plan.cache_info().misses == misses
    oracle.apply_gates(np.ones(()), [(h, ((0,),))], [])  # the first one was dropped
    assert oracle._plan.cache_info().misses == misses + 1
