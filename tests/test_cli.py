import json
import subprocess
import sys

import numpy as np
import pytest

from blochpair.cli import main
from blochpair.model import save_model
from blochpair.protection import Coupling, make_model
from blochpair.quantum import SIGMA_MINUS, pauli


@pytest.fixture
def damping_model_path(tmp_path):
    model = make_model(Coupling("resonant", 0.5), 1.0, 1.0, (0.5 * SIGMA_MINUS,))
    path = tmp_path / "damping.json"
    save_model(model, path)
    return path


@pytest.fixture
def pure_damping_model_path(tmp_path):
    model = make_model(Coupling("dispersive", 0.0), 0.3, 0.9, (SIGMA_MINUS,))
    path = tmp_path / "pure_damping.json"
    save_model(model, path)
    return path


@pytest.fixture
def uncoupled_model_path(tmp_path):
    model = make_model(Coupling("dispersive", 0.0), 0.7, 1.1, (0.5 * SIGMA_MINUS,))
    path = tmp_path / "uncoupled.json"
    save_model(model, path)
    return path


@pytest.fixture
def protectable_model_path(tmp_path):
    ell = SIGMA_MINUS + (0.4 + 0.3j) * pauli(3)
    model = make_model(Coupling("sigma3-sigma1", 0.9), 0.7, 1.1, (ell,))
    path = tmp_path / "protectable.json"
    save_model(model, path)
    return path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(header)}


def test_simulate_damping_monotone_purity_a(pure_damping_model_path, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, stdout, _ = run_cli(
        [
            "simulate",
            "--model",
            pure_damping_model_path,
            "--horizon",
            "5",
            "--step",
            "1e-3",
            "--u0",
            "0,0,0",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["out"] == str(out)
    cols = read_csv(out)
    # A is pumped toward its pole: reduced purity climbs from 1/2
    assert cols["purity_A"][0] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(cols["purity_A"]) > -1e-9)
    assert cols["purity_A"][-1] > 0.9


def test_simulate_uncoupled_b_constant(uncoupled_model_path, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, stdout, _ = run_cli(
        [
            "simulate",
            "--model",
            uncoupled_model_path,
            "--horizon",
            "2",
            "--step",
            "1e-3",
            "--u0",
            "0.5,0,0.3",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    cols = read_csv(out)
    np.testing.assert_allclose(cols["purity_B"], cols["purity_B"][0], atol=1e-12)


def test_simulate_protecting_control(protectable_model_path, tmp_path, capsys):
    out = tmp_path / "protected.csv"
    code, stdout, _ = run_cli(
        [
            "simulate",
            "--model",
            protectable_model_path,
            "--horizon",
            "20",
            "--step",
            "1e-3",
            "--control",
            "feedback:protect-sigma31",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["min_purity_B"] >= 1.0 - 1e-7
    cols = read_csv(out)
    assert np.all(cols["purity_B"] >= 1.0 - 1e-7)
    # the law is the constant feedback (u1, u2) = (0.3, 0.4)
    assert cols["u1"][0] == pytest.approx(0.3, abs=1e-12)
    assert cols["u2"][0] == pytest.approx(0.4, abs=1e-12)


def test_simulate_json_format(damping_model_path, tmp_path, capsys):
    out = tmp_path / "traj.json"
    code, stdout, _ = run_cli(
        [
            "simulate",
            "--model",
            damping_model_path,
            "--horizon",
            "1",
            "--step",
            "1e-2",
            "--format",
            "json",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert "purity_B" in doc["columns"]
    assert doc["metadata"]["step"] == 1e-2


def test_simulate_deterministic_output(damping_model_path, tmp_path, capsys):
    blobs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code, _, _ = run_cli(
            [
                "simulate",
                "--model",
                damping_model_path,
                "--horizon",
                "1",
                "--step",
                "1e-2",
                "--seed",
                "7",
                "--out",
                out,
            ],
            capsys,
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_missing_model_is_config_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["simulate", "--model", tmp_path / "nope.json", "--out", tmp_path / "t.csv"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2


def test_simulate_unphysical_state_is_numerical_error(damping_model_path, tmp_path, capsys):
    # |vA| > 1/2 violates the norm constraints: distinct exit code from
    # configuration problems
    code, _, err = run_cli(
        [
            "simulate",
            "--model",
            damping_model_path,
            "--v0",
            "product:0.9,0,0:0,0,0.5",
            "--out",
            tmp_path / "t.csv",
        ],
        capsys,
    )
    assert code == 3
    assert json.loads(err)["error"]["code"] == 3


def test_simulate_non_finite_model_is_numerical_error(damping_model_path, tmp_path, capsys):
    doc = json.loads(damping_model_path.read_text())
    doc["omega_a"] = float("nan")
    nan_path = tmp_path / "nan_model.json"
    nan_path.write_text(json.dumps(doc))  # written as the JSON token NaN
    code, stdout, err = run_cli(
        ["simulate", "--model", nan_path, "--horizon", "1", "--out", tmp_path / "t.csv"],
        capsys,
    )
    assert code == 3
    assert stdout == ""
    assert json.loads(err)["error"]["code"] == 3


def test_analyze_w_dispersive(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, stdout, _ = run_cli(
        ["analyze-w", "--case", "dispersive", "--g", "0.8", "--samples", "200", "--out", out],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["max_residual"] <= 1e-11
    doc = json.loads(out.read_text())
    assert doc["transcription"]["max_residual"] <= 1e-11


def test_analyze_w_resonant_with_sweep(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, _ = run_cli(
        [
            "analyze-w",
            "--case",
            "resonant",
            "--g",
            "0.7",
            "--samples",
            "200",
            "--grid-step",
            "0.25",
            "--random-samples",
            "500",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    sweep = doc["obstruction"]
    assert sweep["min_va_norm_at_zero"] is None or sweep["min_va_norm_at_zero"] >= 0.5 - 1e-6


def test_analyze_w_sigma31(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, _ = run_cli(
        ["analyze-w", "--case", "sigma3-sigma1", "--g", "0.9", "--out", out], capsys
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["axis1_escape"]["min_escape_rate"] > 0


def test_analyze_w_unknown_case_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["analyze-w", "--case", "exchange", "--out", tmp_path / "w.json"], capsys
    )
    assert code == 2


def test_purification_scan_cli(damping_model_path, tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, stdout, _ = run_cli(
        [
            "purification-scan",
            "--model",
            damping_model_path,
            "--laws",
            "3",
            "--horizons",
            "2,5",
            "--step",
            "1e-2",
            "--seed",
            "3",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["label"] == "numerical evidence"
    assert doc["min_margin"] > 0
    assert doc["seed"] == 3
    assert len(doc["entries"]) == 4  # u = 0 plus three random laws


def test_purification_scan_rejects_boundary_start(damping_model_path, tmp_path, capsys):
    code, _, err = run_cli(
        [
            "purification-scan",
            "--model",
            damping_model_path,
            "--v0",
            "product:0,0,0.5:0,0,0.5",
            "--out",
            tmp_path / "scan.json",
        ],
        capsys,
    )
    assert code == 2
    assert "interior" in json.loads(err)["error"]["message"]


def test_cli_entry_point_subprocess(damping_model_path, tmp_path):
    # the module entry point works as a standalone process
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "blochpair",
            "simulate",
            "--model",
            str(damping_model_path),
            "--horizon",
            "0.5",
            "--step",
            "1e-2",
            "--out",
            str(tmp_path / "t.csv"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["steps"] == 50


def test_default_out_uses_env_var(damping_model_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BLOCHPAIR_OUT", str(tmp_path))
    code, stdout, _ = run_cli(
        ["simulate", "--model", damping_model_path, "--horizon", "0.5", "--step", "1e-2"],
        capsys,
    )
    assert code == 0
    assert json.loads(stdout)["out"] == str(tmp_path / "trajectory.csv")
    assert (tmp_path / "trajectory.csv").exists()
