import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dncsim import blockenc, cli, dnc, geomcircuit as gc, harness, oracle
from dncsim.harness import ExperimentConfig, generate_circuit, run_experiment


def test_generate_brickwork_deterministic():
    spec = {"kind": "brickwork", "dims": [8], "depth": 1, "seed": 7, "gates": "haar"}
    c1, c2 = generate_circuit(spec), generate_circuit(spec)
    assert c1.fingerprint() == c2.fingerprint()
    assert gc.validate(c1).ok


def test_import_dncsim_does_not_load_scipy():
    import dncsim

    src = str(Path(dncsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, dncsim; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_haar_unitary_matches_scipy_draw_for_draw():
    from scipy.stats import unitary_group

    a, b = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(50):
        assert np.array_equal(harness._haar_unitary(a, 4), unitary_group.rvs(4, random_state=b))


def test_weak_unitary_matches_scipy_expm():
    from scipy.linalg import expm

    a, b = np.random.default_rng(12), np.random.default_rng(12)
    for dim, strength in ((2, 0.25), (4, 0.1), (4, 0.4)):
        u = harness._weak_unitary(a, dim, strength)
        h = b.normal(size=(dim, dim)) + 1j * b.normal(size=(dim, dim))
        h = 0.5 * (h + h.conj().T)
        h /= np.linalg.norm(h, 2)
        assert np.allclose(u, expm(-1j * strength * h), rtol=0, atol=1e-14)
        assert np.allclose(u.conj().T @ u, np.eye(dim), rtol=0, atol=1e-14)


def test_generate_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        generate_circuit({"kind": "brickwork", "dims": [8], "depth": 1})


def test_generate_small_cube():
    circ = generate_circuit({"kind": "brickwork", "dims": [2, 2, 2], "depth": 2, "seed": 1, "gates": "haar"})
    assert circ.n_qubits == 8
    assert circ.depth == 2
    assert gc.validate(circ).ok


def test_generate_families_validate():
    specs = [
        {"kind": "identity", "dims": [6], "depth": 2},
        {"kind": "x_layer", "dims": [6], "depth": 1},
        {"kind": "cluster", "dims": [6], "depth": 2},
        {"kind": "product", "dims": [6], "depth": 1, "seed": 2, "strength": 0.3},
        {"kind": "brickwork", "dims": [4, 2], "depth": 2, "seed": 3, "gates": "weak", "strength": 0.1},
    ]
    for spec in specs:
        assert gc.validate(generate_circuit(spec)).ok


def small_config(tmp_path=None, deltas=(0.1,)):
    return ExperimentConfig(
        circuits=[
            {"kind": "identity", "dims": [12, 1, 1], "depth": 1},
            {"kind": "brickwork", "dims": [12, 1, 1], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.15},
        ],
        deltas=list(deltas),
        profile="desk",
        dim=3,
    )


def test_run_experiment_identity_error_zero():
    report = run_experiment(small_config())
    rec = report.records[0]
    assert rec["oracle"] == pytest.approx(1.0)
    assert rec["abs_error"] == pytest.approx(0.0, abs=1e-12)
    assert report.all_within_delta()


def test_run_experiment_large_delta_returns_half():
    cfg = small_config(deltas=(0.7,))
    report = run_experiment(cfg)
    assert all(r["estimate"] == 0.5 for r in report.records)


def test_report_self_consistent_and_reproducible(tmp_path):
    cfg = small_config()
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    for rec in r1.records:
        assert rec["abs_error"] == pytest.approx(abs(rec["oracle"] - rec["estimate"]), abs=1e-15)
    strip = lambda recs: [
        {k: v for k, v in rec.items() if k != "wall_time"} for rec in recs
    ]
    assert strip(r1.records) == strip(r2.records)


def test_report_write_files(tmp_path):
    cfg = small_config()
    report = run_experiment(cfg)
    jpath, cpath = tmp_path / "report.json", tmp_path / "report.csv"
    report.write(jpath, cpath)
    data = json.loads(jpath.read_text())
    assert data["schema_version"] == harness.SCHEMA_VERSION
    assert len(data["records"]) == len(report.records)
    assert cpath.read_text().splitlines()[0].startswith("label,")


def test_config_schema_version_guard():
    with pytest.raises(ValueError, match="schema_version"):
        ExperimentConfig.from_json({"schema_version": 99, "circuits": [], "deltas": []})


def test_config_rejects_unknown_keys_but_loads_the_retired_base():
    with pytest.raises(ValueError, match="cpa, profle"):
        ExperimentConfig.from_json({"circuits": [], "deltas": [0.1], "profle": "paper", "cpa": 10})
    cfg = ExperimentConfig.from_json({"schema_version": 1, "circuits": [], "deltas": [0.1], "base": "exact"})
    assert (cfg.profile, cfg.cap) == ("desk", oracle.DEFAULT_CAP)


def test_config_loads_the_retired_calculus_key():
    # the estimator has one cut operator now; configs that named it still load
    cfg = ExperimentConfig.from_json({"schema_version": 1, "circuits": [], "deltas": [0.1], "calculus": "exact-spectral"})
    assert not hasattr(cfg, "calculus")



@pytest.mark.parametrize(
    "change, match",
    [
        ({"deltas": [0.1, -0.1]}, "delta must be >= 0"),
        ({"deltas": [float("nan")]}, "delta must be >= 0"),
        ({"deltas": ["0.1"]}, "delta must be >= 0"),
        ({"deltas": [True]}, "delta must be >= 0"),
        ({"profile": "papr"}, "unknown profile"),
    ],
)
def test_config_rejects_a_bad_delta_or_profile_before_any_dense_work(monkeypatch, change, match):
    # a negative delta raised after 16 exact evaluations (the circuit's value and
    # the first delta's estimate), an unknown profile after 1
    calls = []
    exact = oracle.synthesis_value_exact
    monkeypatch.setattr(oracle, "synthesis_value_exact", lambda *a, **kw: calls.append(1) or exact(*a, **kw))
    spec = {"kind": "brickwork", "dims": [20, 1, 1], "depth": 1, "seed": 3, "gates": "weak", "strength": 0.1}
    with pytest.raises(dnc.ScheduleError, match=match):
        run_experiment(ExperimentConfig.from_json({"circuits": [spec], "deltas": [0.1], **change}))
    assert calls == []


def test_only_the_predicted_bound_of_a_record_moves_with_K():
    # K reaches no estimate and no trace; it enters only the error model
    spec = {"kind": "brickwork", "dims": [20, 1, 1], "depth": 1, "seed": 3, "gates": "weak", "strength": 0.1}
    records = [
        run_experiment(ExperimentConfig(circuits=[spec], deltas=[0.1, 0.05], overrides={"K": K}, cap=24)).records
        for K in (2, 8)
    ]
    moved = {k for a, b in zip(*records) for k in a if a[k] != b[k]}
    assert moved <= {"predicted_bound", "wall_time"}
    assert "predicted_bound" in moved
    assert all(r["node_counts"].get("kappa") for r in records[0])  # the estimates cut


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_validate_ok(tmp_path, capsys):
    circ = generate_circuit({"kind": "brickwork", "dims": [8], "depth": 1, "seed": 1, "gates": "haar"})
    path = tmp_path / "c.json"
    gc.save_circuit(circ, path)
    assert cli.main(["validate", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_catches_bad_circuit(tmp_path, capsys):
    bad = gc.LatticeCircuit((4,), 1, ((gc.gate("CZ", [(0,), (2,)]),),))
    path = tmp_path / "bad.json"
    gc.save_circuit(bad, path)
    assert cli.main(["validate", str(path)]) == 1
    assert "non-local" in capsys.readouterr().out


def test_cli_simulate_with_trace(tmp_path, capsys):
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [12, 1, 1], "depth": 1, "seed": 5, "gates": "weak", "strength": 0.15}
    )
    path = tmp_path / "c.json"
    gc.save_circuit(circ, path)
    tr = tmp_path / "trace.json"
    rc = cli.main(
        ["simulate", str(path), "--delta", "0.1", "--oracle", "--trace", str(tr)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "estimate:" in out and "oracle:" in out
    assert json.loads(tr.read_text())["kind"] == "run"


def test_cli_verify_encodings(tmp_path, capsys, monkeypatch):
    circ = generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 4, "gates": "haar"})
    path = tmp_path / "c.json"
    gc.save_circuit(circ, path)
    builds = []
    real_build = blockenc._build
    monkeypatch.setattr(blockenc, "_build", lambda *a: builds.append(a[2:]) or real_build(*a))
    assert cli.main(["verify-encodings", str(path), "--cut", "0:2:4", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out and "rho_F^2" in out
    # each encoding is built once (sigma, then rho_F^k and rho_B^k), and its
    # depth printed beside its budget
    assert builds == [(1, "F"), (1, "F"), (1, "B"), (2, "F"), (2, "B")]
    header, *rows = out.splitlines()
    assert header.split() == ["target", "k", "deviation", "depth", "budget"]
    assert [row.split()[-2:] for row in rows] == [["3", "3"]] * 3 + [["5", "5"]] * 2


def test_cli_verify_encodings_prints_the_depth_of_the_record(tmp_path, capsys, monkeypatch):
    # a depth-2 chain: sigma and rho^1 are 2d+1 = 5 deep, rho^2 (k+1)d+k = 8,
    # read from each encoding's record, so no encoding circuit is built
    path = tmp_path / "c.json"
    gc.save_circuit(generate_circuit({"kind": "brickwork", "dims": [5], "depth": 2, "seed": 5, "gates": "haar"}), path)
    placed = []
    real_placed = blockenc._placed
    monkeypatch.setattr(blockenc, "_placed", lambda *a: placed.append(1) or real_placed(*a))
    assert cli.main(["verify-encodings", str(path), "--cut", "0:0:4", "--k", "2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["target", "k", "deviation", "depth", "budget"]
    assert [row.split()[:2] for row in rows] == [["sigma", "1"], ["rho_F^1", "1"], ["rho_B^1", "1"],
                                                 ["rho_F^2", "2"], ["rho_B^2", "2"]]
    assert [row.split()[-2:] for row in rows] == [["5", "6"]] * 3 + [["8", "10"]] * 2
    assert placed == []


def test_cli_experiment_exit_code(tmp_path, capsys):
    config = {
        "schema_version": 1,
        "circuits": [{"kind": "identity", "dims": [12, 1, 1], "depth": 1}],
        "deltas": [0.1],
        "profile": "desk",
        "dim": 3,
        "output_json": str(tmp_path / "r.json"),
        "output_csv": str(tmp_path / "r.csv"),
    }
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    assert cli.main(["experiment", str(cpath)]) == 0
    assert (tmp_path / "r.json").exists() and (tmp_path / "r.csv").exists()


def synthetic_record(label, delta, abs_error):
    return {"label": label, "delta": delta, "oracle": 0.5, "estimate": 0.5 + abs_error, "abs_error": abs_error}


def test_cli_experiment_status_and_exit_code_share_one_predicate(tmp_path, capsys, monkeypatch):
    # a record 1e-13 over delta is inside the 1e-12 slack: it prints ok, and only a record past it fails
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"circuits": [], "deltas": []}))
    edge = synthetic_record("edge", 0.1, 0.1 + 1e-13)
    for records, statuses, code in [
        ([edge, synthetic_record("in", 0.1, 0.05)], ["ok", "ok"], 0),
        ([edge, synthetic_record("out", 0.1, 0.1 + 1e-9)], ["ok", "FAIL"], 2),
    ]:
        monkeypatch.setattr(harness, "run_experiment", lambda config, records=records: harness.Report(1, records))
        assert cli.main(["experiment", str(cpath)]) == code
        assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == statuses


def test_cli_predict(capsys):
    assert cli.main(["predict", "--n", "1024", "--delta", "0.1", "--D", "3"]) == 0
    out = capsys.readouterr().out
    assert "schedule" in out and "predicted error bound" in out and "predicted cost" in out


def test_cli_predict_takes_n_outside_the_cost_model_as_a_typed_error(capsys):
    # the cost model reaches errmodel.e2, whose domain is n >= 4, at n = 3 but not at n = 2, D = 2
    assert cli.main(["predict", "--n", "3", "--delta", "0.1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        "error: ScheduleError: no runtime prediction: n must be >= 4 so loglog(n) is defined, got 3"]
    assert cli.main(["predict", "--n", "2", "--D", "2", "--delta", "0.1"]) == 0
    assert "predicted cost" in capsys.readouterr().out


def test_predicted_bound_comes_from_the_schedule_that_ran(capsys):
    config = ExperimentConfig(
        circuits=[{"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 3, "gates": "weak"}],
        deltas=[0.1],
    )
    bound = run_experiment(config).records[0]["predicted_bound"]
    assert bound == pytest.approx(1.0e-3, rel=0.05)
    assert cli.main(["predict", "--n", "16", "--d", "1", "--D", "3", "--delta", "0.1", "--profile", "desk"]) == 0
    printed = re.search(r"predicted error bound: (\S+)", capsys.readouterr().out).group(1)
    assert bound == pytest.approx(float(printed), rel=1e-5)


def test_cli_prints_a_typed_error_as_one_line_and_exits_3(tmp_path, capsys):
    # sigma on M u F of Slice(0,4,6) is a 2^12 x 2^12 matrix: 24 qubits > cap 22
    circ = generate_circuit(
        {"kind": "brickwork", "dims": [16, 1, 1], "depth": 1, "seed": 16, "gates": "weak", "strength": 0.1}
    )
    path = tmp_path / "c.json"
    gc.save_circuit(circ, path)
    for argv, message in [
        (["verify-encodings", str(path), "--cut", "0:4:6"], "24 qubits > cap 22"),
        (["simulate", str(path), "--delta", "0.1", "--cap", "1"], "2 qubits > cap 1"),
    ]:
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: OracleCapacityError: oracle capacity exceeded: {message}"]


@pytest.mark.parametrize("dim", [0, 1, -3, 2.0, True, "3"])
def test_config_rejects_a_dim_that_is_not_an_integer_from_2(dim):
    with pytest.raises(dnc.ScheduleError, match="dim must be an integer >= 2"):
        ExperimentConfig(circuits=[], deltas=[0.1], dim=dim)
    assert ExperimentConfig(circuits=[], deltas=[0.1], dim=2).dim == 2


def test_cli_simulate_dim_0_is_an_error_not_every_axis(tmp_path, capsys):
    path = tmp_path / "c.json"
    gc.save_circuit(generate_circuit({"kind": "identity", "dims": [16, 1, 1], "depth": 1}), path)
    for delta in ("0.1", "0.5"):
        assert cli.main(["simulate", str(path), "--delta", delta, "--dim", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: ScheduleError: D must be >= 2, got 0"]


@pytest.mark.parametrize("args", [["--cut", "0:2:4", "--k", "5"], ["--cut", "0:2"], ["--cut", "0:a:4"]])
def test_cli_verify_encodings_takes_a_bad_k_or_cut_as_a_usage_error(tmp_path, capsys, args):
    path = tmp_path / "c.json"
    gc.save_circuit(generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 6, "gates": "weak"}), path)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify-encodings", str(path)] + args)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[0].startswith("usage: dncsim verify-encodings")
    assert err.splitlines()[-1].startswith("dncsim verify-encodings: error: argument --")


def test_cli_verify_encodings_k_0_checks_sigma_alone(tmp_path, capsys):
    path = tmp_path / "c.json"
    gc.save_circuit(generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 6, "gates": "weak"}), path)
    assert cli.main(["verify-encodings", str(path), "--cut", "0:2:4", "--k", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["sigma"]


@pytest.mark.parametrize("config", [
    {"circuits": [], "deltas": [0.1], "dims": 3},
    {"schema_version": 99, "circuits": [], "deltas": [0.1]},
    {"circuits": [], "deltas": 0.1},
    {"circuits": [{"kind": "identity", "depth": 1}], "deltas": [0.1]},
    {"circuits": [{"kind": "brickwork", "dims": [8], "depth": 1}], "deltas": [0.1]},
    {"circuits": [{"kind": "ladder", "dims": [8], "depth": 1}], "deltas": [0.1]},
    {"circuits": [{"kind": "identity", "dims": [8], "depth": 0}], "deltas": [0.1]},
    {"circuits": [], "deltas": [0.1], "cap": "x"},
    [{"circuits": [], "deltas": [0.1]}],
    {"circuits": [{"file": 3}], "deltas": [0.1]},  # open() would take 3 as a file descriptor
    {"circuits": [], "deltas": [0.1], "output_json": 3},
])
def test_cli_experiment_takes_a_bad_config_as_a_typed_error(tmp_path, capsys, config):
    with pytest.raises(dnc.ScheduleError):
        ExperimentConfig.from_json(config)
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    assert cli.main(["experiment", str(cpath)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ScheduleError: ")


def test_cli_experiment_prints_an_invalid_circuit_file_as_violations(tmp_path, capsys):
    path = tmp_path / "c.json"
    gc.save_circuit(generate_circuit({"kind": "x_layer", "dims": [4], "depth": 1}), path)
    data = json.loads(path.read_text())
    data["layers"][0][0]["gate"] = [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]  # not unitary
    path.write_text(json.dumps(data))
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"circuits": [{"kind": "identity", "dims": [8], "depth": 1},
                                              {"file": str(path)}], "deltas": [0.1]}))
    assert cli.main(["experiment", str(cpath)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines() == [f"violation: {path}: layer 0: non-unitary gate on ((0,),)"]


@pytest.mark.parametrize("text", [None, '{"dims": [4], "depth"'])
@pytest.mark.parametrize("command", [["simulate", "--delta", "0.1"], ["validate"], ["experiment"]])
def test_cli_takes_a_missing_or_truncated_file_as_a_usage_error(tmp_path, capsys, text, command):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(command[:1] + [str(path)] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    kind = "FileNotFoundError" if text is None else "JSONDecodeError"
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {kind}: ")
