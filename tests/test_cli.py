import dataclasses
import json
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from blochpair import cli
from blochpair.cli import main
from blochpair.coherence import embed_factorized
from blochpair.dynamics import ControlLaw, PhysicalityError, integrate
from blochpair.model import TwoQubitModel, load_model, save_model
from blochpair.protection import Coupling, make_model, resonant_obstruction_report, transcription_report
from blochpair.quantum import SIGMA_MINUS, pauli
from conftest import NON_PAULI_CONTROLS, REFUSED_STARTS


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
            "--control",
            "constant:0,0,0",
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
            "--control",
            "constant:0.5,0,0.3",
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


def test_simulate_protecting_control_from_given_start(protectable_model_path, tmp_path, capsys):
    # --v0 replaces the protected start state; the law stays the protecting control
    out = tmp_path / "protected.csv"
    args = ["simulate", "--model", protectable_model_path, "--horizon", "0.1", "--step", "1e-2",
            "--control", "feedback:protect-sigma31", "--v0", "product:0.1,0,0.2:0,0.3,0.1", "--out", out]
    assert run_cli(args, capsys)[0] == 0
    cols = read_csv(out)
    names = ["c0", "vA1", "vA2", "vA3"] + [f"vAB{k}" for k in range(1, 10)] + ["vB1", "vB2", "vB3"]
    first = np.array([cols[name][0] for name in names])
    np.testing.assert_array_equal(first, embed_factorized([0.1, 0.0, 0.2], [0.0, 0.3, 0.1]))
    np.testing.assert_allclose(cols["u1"], 0.3, atol=1e-12)
    np.testing.assert_allclose(cols["u2"], 0.4, atol=1e-12)
    np.testing.assert_array_equal(cols["u3"], 0.0)


@pytest.mark.parametrize(
    "ell", [SIGMA_MINUS, 0.5 * pauli(1)], ids=["compatible-noise", "incompatible-noise"]
)
def test_simulate_protecting_control_needs_pauli_controls(ell, tmp_path, capsys):
    # the library refuses non-Pauli controls whether or not a pole is compatible
    path = tmp_path / "non_pauli.json"
    lam = Coupling("sigma3-sigma1", 0.9).lambda_matrix()
    save_model(TwoQubitModel(0.7, 1.1, lam, (ell,), NON_PAULI_CONTROLS), path)
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(
        ["simulate", "--model", path, "--control", "feedback:protect-sigma31", "--out", out], capsys
    )
    assert code == 2
    assert stdout == ""
    assert "assumes the default Pauli controls" in json.loads(err)["error"]["message"]
    assert not out.exists()


def test_simulate_protecting_control_needs_sigma31_coupling(damping_model_path, tmp_path, capsys):
    # the resonant model admits the compatibility condition but not the protection
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(
        [
            "simulate",
            "--model",
            damping_model_path,
            "--horizon",
            "2",
            "--control",
            "feedback:protect-sigma31",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert "sigma3-sigma1" in json.loads(err)["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_simulate_rejects_non_finite_horizon(horizon, damping_model_path, tmp_path, capsys):
    code, stdout, err = run_cli(
        ["simulate", "--model", damping_model_path, "--horizon", horizon, "--out", tmp_path / "t.csv"],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    message = json.loads(err)["error"]["message"]
    assert "horizon" in message and "finite" in message


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


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--horizon", "1", "--step", "1e-3", "--seed", "7"],
        ["simulate", "--horizon", "1", "--step", "1e-3", "--seed", "7", "--format", "json"],
        ["purification-scan", "--laws", "2", "--horizons", "1,2"],
    ],
    ids=["simulate-csv", "simulate-json", "purification-scan"],
)
def test_simulate_deterministic_output(args, damping_model_path, tmp_path, capsys):
    # 1,000 and 2,000 steps: full blocks at two levels of the power tree (16 and 256 steps), and tails
    blobs = []
    for name in ("one", "two"):
        out = tmp_path / name
        code, _, _ = run_cli(args + ["--model", damping_model_path, "--out", out], capsys)
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


_MODEL_DOC = {"omega_a": 1.0, "omega_b": 1.0, "lambda": [[0.4, 0, 0], [0, 0.4, 0], [0, 0, 0]], "jumps": []}


@pytest.mark.parametrize(
    "content",
    [
        None,
        "directory",
        [1, 2],
        {**_MODEL_DOC, "omega_a": None},
        {**_MODEL_DOC, "omega_a": 10**400},  # an integer no float holds
        {**_MODEL_DOC, "jumps": 5},
        {**_MODEL_DOC, "jumps": [[[1, 0]]]},
        {**_MODEL_DOC, "jumps": [[[[1]]]]},
    ],
    ids=["missing", "directory", "list", "null-omega", "huge-int", "int-jumps", "flat-jump", "short-entry"],
)
def test_simulate_missing_model_is_config_error(content, tmp_path, capsys):
    # a model file that is missing, unreadable or malformed: exit 2 with one
    # JSON line naming the file, never a traceback
    path = tmp_path / "nope.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_text(json.dumps(content))
    code, _, err = run_cli(
        ["simulate", "--model", path, "--out", tmp_path / "t.csv"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2
    assert err.count("\n") == 1
    assert str(path) in json.loads(err)["error"]["message"]


def test_simulate_unphysical_state_is_config_error(damping_model_path, tmp_path, capsys):
    # |vA| > 1/2 violates the norm constraints: a bad input, which no step size can mend
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
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2
    assert "start state violates physicality bounds" in json.loads(err)["error"]["message"]


def test_simulate_non_finite_model_is_config_error(damping_model_path, tmp_path, capsys):
    doc = json.loads(damping_model_path.read_text())
    doc["omega_a"] = float("nan")
    nan_path = tmp_path / "nan_model.json"
    nan_path.write_text(json.dumps(doc))  # written as the JSON token NaN
    code, stdout, err = run_cli(
        ["simulate", "--model", nan_path, "--horizon", "1", "--out", tmp_path / "t.csv"],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"]["code"] == 2
    assert "omega_a must be finite" in json.loads(err)["error"]["message"]
    assert not (tmp_path / "t.csv").exists()


def test_simulate_non_finite_control_file_is_config_error(damping_model_path, tmp_path, capsys):
    control = tmp_path / "nan_control.json"
    doc = {"times": [0.0, float("nan")], "values": [[0, 0, 0], [0.9, 0, 0]], "bound": 1.0}
    control.write_text(json.dumps(doc))  # written as the JSON token NaN
    code, stdout, err = run_cli(
        [
            "simulate",
            "--model",
            damping_model_path,
            "--horizon",
            "1",
            "--control",
            f"piecewise:{control}",
            "--out",
            tmp_path / "t.csv",
        ],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"]["code"] == 2


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"times": [0.0, 0.5], "values": [[0, 0, 0], [0.9, 0, 0]], "bound": "1"}),
        "not json",
        json.dumps({"times": [0, 10**400], "values": [[0, 0, 0], [0.9, 0, 0]]}),
        None,  # a directory
    ],
    ids=["string-bound", "not-json", "huge-int", "directory"],
)
def test_simulate_mistyped_control_file_is_config_error(text, damping_model_path, tmp_path, capsys):
    control = tmp_path / "typed_control.json"
    if text is None:
        control.mkdir()
    else:
        control.write_text(text)
    code, stdout, err = run_cli(
        [
            "simulate",
            "--model",
            damping_model_path,
            "--horizon",
            "1",
            "--control",
            f"piecewise:{control}",
            "--out",
            tmp_path / "t.csv",
        ],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"]["code"] == 2
    assert err.count("\n") == 1
    assert str(control) in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("via_env", [False, True], ids=["out", "env"])
@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--horizon", "0.1", "--step", "1e-2"],
        ["analyze-w", "--case", "dispersive", "--samples", "5"],
        ["purification-scan", "--laws", "1", "--horizons", "0.1", "--step", "1e-2"],
    ],
    ids=["simulate", "analyze-w", "purification-scan"],
)
def test_output_in_missing_directory_is_config_error(
    args, via_env, damping_model_path, tmp_path, capsys, monkeypatch
):
    missing = tmp_path / "missing_dir"
    default_names = {"simulate": "trajectory.csv", "analyze-w": "w_report.json",
                     "purification-scan": "purification_scan.json"}
    requested = missing / (default_names[args[0]] if via_env else "out.txt")
    if via_env:
        monkeypatch.setenv("BLOCHPAIR_OUT", str(missing))
    else:
        args = args + ["--out", missing / "out.txt"]
    if args[0] != "analyze-w":
        args = args + ["--model", damping_model_path]
    code, stdout, err = run_cli(args, capsys)
    assert run_cli(args, capsys) == (code, stdout, err)  # the same message on every run
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert str(missing) in json.loads(err)["error"]["message"]
    assert not missing.exists()
    # the message names the file that was asked for, not a random temporary sibling
    assert str(requested) in json.loads(err)["error"]["message"]
    assert ".tmp-" not in err


@pytest.mark.parametrize(
    "args, message",
    [
        (["--v0", "product:1,2:3"], "--v0 expects three comma-separated numbers, got '1,2'"),
        (["--v0", "product:a,0,0:0,0,0"], "could not parse --v0='a,0,0': "),
        (["--v0", "product:0,0,0"], "--v0 product form is product:ax,ay,az:bx,by,bz"),
        (["--v0", "bogus"], "unknown --v0 specification 'bogus'"),
        (["--control", "bogus"], "unknown --control specification 'bogus'"),
        (["--v0", "product:inf,0,0:0,0,0"], "--v0 expects three finite numbers, got 'inf,0,0'"),
        (["--v0", "product:0,0,0:0,nan,0"], "--v0 expects three finite numbers, got '0,nan,0'"),
        (["--control", "constant:1,-inf,0"], "--control expects three finite numbers, got '1,-inf,0'"),
    ],
    ids=[
        "triple-count", "triple-parse", "product-one-block", "v0-unknown", "control-unknown",
        "v0-inf", "v0-nan", "control-inf",
    ],
)
def test_malformed_specification_is_config_error(args, message, damping_model_path, tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(
        ["simulate", "--model", damping_model_path, "--horizon", "0.1", "--out", out] + args, capsys
    )
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"]["message"].startswith(message)
    assert not out.exists()


def test_simulate_protecting_control_needs_compatible_dissipation(tmp_path, capsys):
    # sigma_1 damping moves vA3 off both poles: neither +1/2 nor -1/2 is protectable
    path = tmp_path / "sigma1_noise.json"
    save_model(make_model(Coupling("sigma3-sigma1", 0.9), 0.7, 1.1, (0.5 * pauli(1),)), path)
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(
        ["simulate", "--model", path, "--control", "feedback:protect-sigma31", "--out", out], capsys
    )
    assert code == 2
    assert stdout == ""
    assert "protect-sigma31 requires dissipation compatible" in json.loads(err)["error"]["message"]
    assert not out.exists()


def test_overflowing_model_reports_one_strict_json_line(damping_model_path, tmp_path):
    # the NaN state meets the physicality gate: no numpy warning on stderr,
    # and the non-finite defect is written as null, not as the non-JSON NaN
    doc = json.loads(damping_model_path.read_text())
    doc["omega_a"] = 1e300
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "blochpair", "simulate", "--model", str(path), "--horizon", "0.01",
         "--out", str(tmp_path / "t.csv")],
        capture_output=True,
        text=True,
    )

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    assert result.returncode == 3
    assert result.stderr.count("\n") == 1
    assert json.loads(result.stderr, parse_constant=reject)["error"]["detail"]["defect"] is None


def test_diverging_run_reports_the_gate_failure_in_both_commands(tmp_path, capsys):
    # the README's example model with its jump entry 0.632 made 17 leaves the ball by t = 1 at
    # step 0.01; both commands exit 3 with integrate's own t and finite defect, and write nothing
    doc = {"omega_a": 1.0, "omega_b": 1.0, "lambda": [[0.4, 0, 0], [0, 0.4, 0], [0, 0, 0]],
           "jumps": [[[[0.0, 0.0], [0.0, 0.0]], [[17.0, 0.0], [0.0, 0.0]]]]}
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PhysicalityError) as raised:
        integrate(load_model(path), cli._initial_state("mixed"), ControlLaw.constant([0.0, 0.0, 0.0]), 1.0, 0.01)
    expected = {"t": raised.value.t, "defect": raised.value.defect}
    assert expected["t"] == 1.0 and 1e13 < expected["defect"] < 1e14
    for command, horizon in (("simulate", "--horizon"), ("purification-scan", "--horizons")):
        out = tmp_path / f"{command}.out"
        code, stdout, err = run_cli([command, "--model", path, horizon, "1", "--step", "0.01", "--out", out], capsys)
        assert (code, stdout) == (3, "")
        assert json.loads(err)["error"]["detail"] == expected
    assert sorted(tmp_path.iterdir()) == [path]


def test_failed_structural_certificate_is_numerical_error(tmp_path, capsys):
    # omega_a or omega_b = 1e308 overflows a rotation (Tr(h sigma_3) is inf), and a control entry of 1e308
    # overflows that control's rotation; the finiteness checks of the generator and of the affine split
    # stop every command before it writes anything.  analyze-w replaces the file's coupling, so the hash
    # it names is not the file's: its error line names the file too
    model = make_model(Coupling("sigma3-sigma1", 0.9), 0.7, 1.1, (SIGMA_MINUS,))
    doc = model.to_dict()
    huge_control = dataclasses.replace(model, control_hams=(1e308 * pauli(1), pauli(2), pauli(3)))
    huge = {name: tmp_path / f"{name}.json" for name in ("huge_a", "huge_b", "huge_control")}
    huge["huge_a"].write_text(json.dumps({**doc, "omega_a": 1e308}))
    huge["huge_b"].write_text(json.dumps({**doc, "omega_b": 1e308}))
    huge["huge_control"].write_text(json.dumps(huge_control.to_dict()))

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    for name, command, what in (
        ("huge_b", ["analyze-w", "--case", "sigma3-sigma1"], "generator"),
        ("huge_b", ["simulate", "--horizon", "0.01"], "generator"),
        ("huge_b", ["purification-scan", "--horizons", "0.01"], "generator"),
        ("huge_a", ["analyze-w", "--case", "resonant"], "generator"),
        ("huge_a", ["analyze-w", "--case", "dispersive"], "generator"),
        ("huge_control", ["simulate", "--horizon", "0.01"], "affine split"),
    ):
        path = huge[name]
        code, stdout, err = run_cli([*command, "--model", path, "--out", tmp_path / "out"], capsys)
        assert (code, stdout, err.count("\n")) == (3, "", 1)
        error = json.loads(err, parse_constant=reject)["error"]
        file_hash = re.fullmatch(f"the {what} of model ([0-9a-f]{{16}}) is not finite", error["message"]).group(1)
        if command[0] == "analyze-w":
            assert error["detail"] == {"model_file": str(path)}
        else:  # the hash simulate and purification-scan name is the file's own
            assert "detail" not in error and file_hash == load_model(path).hash_hex()
    assert sorted(tmp_path.iterdir()) == sorted(huge.values())


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


@pytest.mark.parametrize("case", ["dispersive", "resonant", "sigma3-sigma1"])
@pytest.mark.parametrize("g", ["nan", "inf"])
def test_analyze_w_non_finite_coupling_is_config_error(case, g, tmp_path, capsys):
    out = tmp_path / "w.json"
    code, stdout, err = run_cli(["analyze-w", "--case", case, "--g", g, "--out", out], capsys)
    assert code == 2
    assert stdout == ""
    assert "g must be finite" in json.loads(err)["error"]["message"]
    assert not out.exists()


def test_analyze_w_non_finite_model_is_config_error(damping_model_path, tmp_path, capsys):
    doc = json.loads(damping_model_path.read_text())
    doc["omega_a"] = float("nan")
    nan_path = tmp_path / "nan_model.json"
    nan_path.write_text(json.dumps(doc))  # written as the JSON token NaN
    code, _, err = run_cli(
        ["analyze-w", "--case", "dispersive", "--model", nan_path, "--out", tmp_path / "w.json"],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2


def test_analyze_w_sigma31_non_finite_model_is_config_error(tmp_path, capsys):
    model = make_model(Coupling("sigma3-sigma1", 0.9), 0.7, 1.1, (SIGMA_MINUS,))
    doc = model.to_dict()
    doc["omega_b"] = float("nan")
    nan_path = tmp_path / "nan_model.json"
    nan_path.write_text(json.dumps(doc))  # written as the JSON token NaN
    code, _, err = run_cli(
        ["analyze-w", "--case", "sigma3-sigma1", "--model", nan_path, "--out", tmp_path / "w.json"],
        capsys,
    )
    assert code == 2
    assert "omega_b must be finite" in json.loads(err)["error"]["message"]


def test_analyze_w_oracle_failure_writes_nothing(tmp_path, capsys):
    # a finite model whose drifts overflow the oracle's tolerance: the gate
    # fails before any report or summary is written
    out = tmp_path / "w.json"
    code, stdout, err = run_cli(
        ["analyze-w", "--case", "dispersive", "--g", "1e200", "--out", out], capsys
    )
    assert code == 3
    assert stdout == ""
    assert "transcription residual" in json.loads(err)["error"]["message"]
    assert not out.exists()


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


def test_analyze_w_model_file_supplies_noise_not_coupling(tmp_path, capsys):
    # a dispersive file with the default frequencies and noise: the resonant
    # case must sweep the resonant coupling of --g, as without --model
    dispersive = tmp_path / "dispersive.json"
    save_model(make_model(Coupling("dispersive", 1.0), 0.9, 1.1, (SIGMA_MINUS,)), dispersive)
    reports = {}
    for name, extra in (("file", ["--model", dispersive]), ("default", [])):
        out = tmp_path / f"w_{name}.json"
        args = ["analyze-w", "--case", "resonant", "--g", "0.7", "--grid-step", "0.25", "--out", out]
        assert run_cli(args + extra, capsys)[0] == 0
        reports[name] = json.loads(out.read_text())["obstruction"]
    assert reports["file"] == reports["default"]
    assert reports["file"]["n_drift_zero_points"] == 26
    assert reports["file"]["min_va_norm_at_zero"] == 0.5
    assert reports["file"]["min_drift_off_sphere"] == pytest.approx(0.0195, abs=1e-4)


@pytest.mark.parametrize("case", ["dispersive", "resonant"])
def test_analyze_w_model_file_keeps_its_controls(case, tmp_path, capsys):
    # only the coupling is replaced: the file's own control Hamiltonians are analysed
    path = tmp_path / "non_pauli.json"
    lam = Coupling("sigma3-sigma1", 1.0).lambda_matrix()
    save_model(TwoQubitModel(0.9, 1.1, lam, (SIGMA_MINUS,), NON_PAULI_CONTROLS), path)
    out = tmp_path / "w.json"
    args = ["analyze-w", "--case", case, "--g", "0.7", "--samples", "20", "--grid-step", "0.25",
            "--random-samples", "200", "--seed", "3", "--model", path, "--out", out]
    assert run_cli(args, capsys)[0] == 0
    written = json.loads(out.read_text())
    model = dataclasses.replace(load_model(path), lam=Coupling(case, 0.7).lambda_matrix())
    assert not model.has_default_controls()
    expected = transcription_report(Coupling(case, 0.7), n_samples=20, seed=3, model=model)
    assert written["transcription"] == json.loads(json.dumps(expected))
    if case == "resonant":
        sweep = resonant_obstruction_report(0.7, grid_step=0.25, n_random=200, seed=3, model=model)
        assert written["obstruction"] == json.loads(json.dumps(sweep))


def test_analyze_w_sigma31_with_resonant_model_file(damping_model_path, tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, _ = run_cli(
        ["analyze-w", "--case", "sigma3-sigma1", "--model", damping_model_path, "--out", out],
        capsys,
    )
    assert code == 0
    escape = json.loads(out.read_text())["axis1_escape"]
    assert escape["min_escape_rate"] == pytest.approx(escape["expected_rate"], abs=1e-9)


@pytest.mark.parametrize("grid_step", ["0", "-0.1"])
def test_analyze_w_rejects_empty_grid_step(grid_step, tmp_path, capsys):
    out = tmp_path / "w.json"
    code, stdout, err = run_cli(
        ["analyze-w", "--case", "resonant", "--grid-step", grid_step, "--out", out], capsys
    )
    assert code == 2
    assert stdout == ""
    assert "grid_step" in json.loads(err)["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "args, name",
    [
        (["analyze-w", "--case", "dispersive", "--samples", "0"], "n_samples"),
        (
            ["analyze-w", "--case", "resonant", "--samples", "10", "--grid-step", "0.25",
             "--random-samples", "-1"],
            "n_random",
        ),
        (["purification-scan", "--laws", "-2", "--horizons", "1", "--step", "1e-2"], "n_laws"),
    ],
    ids=["samples-0", "random-samples-negative", "laws-negative"],
)
def test_counts_out_of_range_are_config_errors(args, name, damping_model_path, tmp_path, capsys):
    if args[0] == "purification-scan":
        args = args + ["--model", damping_model_path]
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(args + ["--out", out], capsys)
    assert code == 2
    assert stdout == ""
    assert name in json.loads(err)["error"]["message"]
    assert not out.exists()


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


def test_purification_scan_rejects_nan_start(damping_model_path, tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, stdout, err = run_cli(
        ["purification-scan", "--model", damping_model_path, "--v0", "product:nan,0,0:0,0,0", "--out", out],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert "--v0 expects three finite numbers, got 'nan,0,0'" in json.loads(err)["error"]["message"]
    assert not out.exists()


_REFUSED_SPECS = {
    "product:0.5000001,0,0:0,0,0": "negative eigenvalue -5.000e-08",
    "product:0.50001,0,0:0,0,0": "physicality bounds by 1.000e-05",
    "product:0.6,0,0:0,0,0": "physicality bounds by 1.100e-01",
    "product:0.3,0.3,0.3:0.3,0.3,0.3": "physicality bounds by 8.160e-02",
    "product:nan,0,0:0,0,0": "--v0 expects three finite numbers, got 'nan,0,0'",
    "product:inf,0,0:0,0,0": "--v0 expects three finite numbers, got 'inf,0,0'",
}


@pytest.mark.parametrize("start", list(_REFUSED_SPECS) + list(REFUSED_STARTS))
def test_refused_start_is_one_config_error_in_both_commands(start, damping_model_path, tmp_path, capsys, monkeypatch):
    # simulate exited 2 or 3 by how far outside the ball a start lay, and the scan named
    # some non-states boundary states; a start that is no state is an input error in both
    if start in REFUSED_STARTS:  # a start no --v0 spec can write, handed in as the parsed state
        vector, words = REFUSED_STARTS[start]
        parse = cli._initial_state
        monkeypatch.setattr(cli, "_initial_state", lambda spec: vector.copy() if spec == "planted" else parse(spec))
        start = "planted"
    else:
        words = _REFUSED_SPECS[start]
    errors = []
    for command, out in (("simulate", tmp_path / "t.csv"), ("purification-scan", tmp_path / "scan.json")):
        code, stdout, err = run_cli([command, "--model", damping_model_path, "--v0", start, "--out", out], capsys)
        assert (code, stdout) == (2, "")
        errors.append(err)
    assert sorted(tmp_path.iterdir()) == [damping_model_path]  # no output, no temporary file
    assert errors[0] == errors[1]
    error = json.loads(errors[0])["error"]
    assert error["code"] == 2 and words in error["message"] and "detail" not in error


@pytest.mark.parametrize(
    "residual, code", [(1e-10, 0), (float(np.nextafter(1e-10, 1.0)), 3)], ids=["at-limit", "one-ulp-over"]
)
def test_oracle_residual_limit_edge(residual, code, tmp_path, capsys, monkeypatch):
    # the transcription gate passes a residual of ORACLE_RESIDUAL_LIMIT = 1e-10 and refuses one double more
    monkeypatch.setattr(cli, "transcription_report", lambda *args, **kwargs: {"max_residual": residual})
    out = tmp_path / "w.json"
    got, stdout, err = run_cli(["analyze-w", "--case", "dispersive", "--out", out], capsys)
    assert got == code and out.exists() == (code == 0)
    if code:
        assert stdout == ""
        assert json.loads(err)["error"]["message"] == "transcription residual 1.000e-10 is not within 1.0e-10"
    else:
        assert json.loads(stdout)["max_residual"] == 1e-10


def test_lapack_failure_is_numerical_error(damping_model_path, tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet a failed eigensolver is no configuration error
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    out = tmp_path / "scan.json"
    code, stdout, err = run_cli(["purification-scan", "--model", damping_model_path, "--out", out], capsys)
    assert code == 3
    assert stdout == ""
    assert json.loads(err)["error"]["message"] == "Eigenvalues did not converge"
    assert not out.exists()


@pytest.mark.parametrize("horizons, bad", [("10,inf", "inf"), ("nan", "nan")], ids=["10,inf", "nan"])
def test_purification_scan_rejects_non_finite_horizons(horizons, bad, damping_model_path, tmp_path, capsys):
    code, stdout, err = run_cli(
        [
            "purification-scan",
            "--model",
            damping_model_path,
            "--horizons",
            horizons,
            "--out",
            tmp_path / "scan.json",
        ],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert f"horizon must be finite and > 0, got {bad}" in json.loads(err)["error"]["message"]


def test_purification_scan_rejects_negative_bound(damping_model_path, tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, stdout, err = run_cli(
        ["purification-scan", "--model", damping_model_path, "--bound", "-1", "--out", out],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert "bound must be finite and >= 0" in json.loads(err)["error"]["message"]
    assert not out.exists()


def test_negative_coupling_reaches_analyze_w(tmp_path, capsys):
    # "-1e-3" is not a number to argparse's own pattern, which takes it for an option
    out = tmp_path / "w.json"
    code, _, err = run_cli(["analyze-w", "--case", "dispersive", "--g", "-1e-3", "--out", out], capsys)
    assert code == 0, err
    assert '"g": -0.001' in out.read_text()


@pytest.mark.parametrize("horizons", [["--horizons", "-0.5,2"], ["--horizons=-0.5,2"]], ids=["space", "equals"])
def test_negative_horizon_list_reaches_the_check(horizons, damping_model_path, tmp_path, capsys):
    out = tmp_path / "scan.json"
    code, stdout, err = run_cli(
        ["purification-scan", "--model", damping_model_path, *horizons, "--out", out],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert "horizon must be finite and > 0, got -0.5" in json.loads(err)["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "args, target",
    [
        (["simulate", "--horizon", "1", "--step", "1e-2"], "integrate"),
        (["analyze-w", "--case", "resonant", "--samples", "5"], "resonant_obstruction_report"),
        (["purification-scan", "--laws", "1", "--horizons", "1", "--step", "1e-2"], "purification_scan"),
    ],
    ids=["simulate", "analyze-w", "purification-scan"],
)
def test_oversized_request_is_config_error(args, target, damping_model_path, tmp_path, capsys, monkeypatch):
    # an array too large to allocate is the request's fault: exit 2 and one JSON line, no traceback
    message = "Unable to allocate 146. TiB for an array with shape (20000000000000, 16) and data type float64"

    def oversized(*_args, **_kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"blochpair.cli.{target}", oversized)
    if args[0] != "analyze-w":
        args = args + ["--model", damping_model_path]
    out = tmp_path / "out.txt"
    code, stdout, err = run_cli(args + ["--out", out], capsys)
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == {"code": 2, "message": message}
    assert not out.exists()


def test_simulate_oversized_step_is_refused_by_name(damping_model_path, tmp_path, capsys):
    # the real request, no stub: integrate refuses it from the step count before allocating
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(
        ["simulate", "--model", damping_model_path, "--step", "1e-12", "--out", out], capsys
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["message"].startswith("horizon 20 at step 1e-12 needs ")
    assert not out.exists()


@pytest.mark.parametrize("step", ["-1e-3", "-.001"])
def test_negative_step_reaches_the_check(step, damping_model_path, tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(
        ["simulate", "--model", damping_model_path, "--horizon", "1", "--step", step, "--out", out],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert "step must be finite and positive" in json.loads(err)["error"]["message"]
    assert not out.exists()


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


@pytest.mark.parametrize(
    "args, name",
    [
        (["simulate", "--horizon", "0.5", "--step", "1e-2"], "trajectory.csv"),
        (["simulate", "--horizon", "0.5", "--step", "1e-2", "--format", "json"], "trajectory.json"),
        (["analyze-w", "--case", "dispersive", "--samples", "5"], "w_report.json"),
        (["purification-scan", "--laws", "1", "--horizons", "0.1", "--step", "1e-2"], "purification_scan.json"),
    ],
    ids=["simulate-csv", "simulate-json", "analyze-w", "purification-scan"],
)
def test_default_out_uses_env_var(args, name, damping_model_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BLOCHPAIR_OUT", str(tmp_path))
    if args[0] != "analyze-w":
        args = args + ["--model", damping_model_path]
    code, stdout, _ = run_cli(args, capsys)
    assert code == 0
    summary = json.loads(stdout)
    assert list(summary)[0] == "out"
    assert summary["out"] == str(tmp_path / name)
    assert (tmp_path / name).exists()


@pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--horizon", "0.5", "--step", "1e-2"],
        ["simulate", "--horizon", "0.5", "--step", "1e-2", "--format", "json"],
        ["analyze-w", "--case", "resonant", "--grid-step", "0.25", "--random-samples", "10"],
        ["purification-scan", "--laws", "1", "--horizons", "0.1", "--step", "1e-2"],
    ],
    ids=["simulate-csv", "simulate-json", "analyze-w", "purification-scan"],
)
def test_outputs_take_the_mode_of_a_new_file_under_the_umask(args, umask, damping_model_path, tmp_path, capsys):
    # the atomic write's mkstemp temporary is 0600, and the rename kept it: every output read
    # -rw------- where a plain new file reads -rw-r--r-- under umask 022
    if args[0] != "analyze-w":
        args = args + ["--model", damping_model_path]
    out = tmp_path / "out"
    code, _, _ = run_cli(args + ["--out", out], capsys)
    assert code == 0
    touched = tmp_path / "touched"
    touched.touch()
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(touched.stat().st_mode) == 0o666 & ~umask
