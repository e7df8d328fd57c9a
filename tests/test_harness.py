import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dncsim import cli, geomcircuit as gc, harness, oracle
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


def test_cli_verify_encodings(tmp_path, capsys):
    circ = generate_circuit({"kind": "brickwork", "dims": [6], "depth": 1, "seed": 4, "gates": "haar"})
    path = tmp_path / "c.json"
    gc.save_circuit(circ, path)
    assert cli.main(["verify-encodings", str(path), "--cut", "0:2:4", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out and "rho_F^2" in out


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
