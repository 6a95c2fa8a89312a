"""Tests for the command-line front end."""

import json
import os

import pytest

from simplex_stdp import cli


def run(args):
    return cli.main(args)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_unknown_scenario_exits_2(tmp_path):
    assert run(["no-such-scenario", "--out", str(tmp_path)]) == 2


def test_unknown_override_key_exits_2(tmp_path):
    assert run(["landscape-grid", "--out", str(tmp_path), "--set", "bogus=1"]) == 2


def test_precondition_violation_exits_3(tmp_path):
    # first coordinate not dominant
    code = run([
        "thm22-verify", "--out", str(tmp_path),
        "--set", "p0=[0.1,0.9]", "--set", "n_traj=2", "--set", "n_steps=10",
        "--set", "checkpoints=[0,10]",
    ])
    assert code == 3


def test_landscape_grid_outputs(tmp_path):
    assert run(["landscape-grid", "--out", str(tmp_path), "--set", "grid_step=0.02"]) == 0
    out = tmp_path / "landscape-grid"
    assert (out / "landscape.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "landscape-grid"
    assert "landscape.csv" in manifest["files"]
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True


def test_config_file_and_set_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"grid_step": 0.5}))
    assert run([
        "landscape-grid", "--out", str(tmp_path / "a"), "--config", str(cfg_file),
    ]) == 0
    assert run([
        "landscape-grid", "--out", str(tmp_path / "b"), "--config", str(cfg_file),
        "--set", "grid_step=0.02",
    ]) == 0
    rows_a = (tmp_path / "a" / "landscape-grid" / "landscape.csv").read_text().count("\n")
    rows_b = (tmp_path / "b" / "landscape-grid" / "landscape.csv").read_text().count("\n")
    # the --set flag overrides the config file value
    assert rows_b > rows_a


def test_rerun_byte_identical(tmp_path):
    for sub in ("x", "y"):
        assert run([
            "fig2-ensemble", "--seed", "7", "--out", str(tmp_path / sub),
            "--threads", "1" if sub == "x" else "3",
            "--set", "n_traj=8", "--set", "n_steps=200",
        ]) == 0
    a = read_bytes(tmp_path / "x" / "fig2-ensemble" / "final_states.csv")
    b = read_bytes(tmp_path / "y" / "fig2-ensemble" / "final_states.csv")
    assert a == b


def test_env_var_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("SIMPLEX_STDP_OUT", str(tmp_path))
    assert run(["mirror-compare", "--set", "n_points=10"]) == 0
    assert (tmp_path / "mirror-compare" / "mirror.csv").exists()


def test_verify_scenario_reports(tmp_path):
    code = run([
        "thm22-verify", "--seed", "3", "--out", str(tmp_path),
        "--set", "n_traj=20", "--set", "n_steps=20000",
        "--set", "checkpoints=[0,10000,20000]",
    ])
    assert code == 0
    report = json.loads((tmp_path / "thm22-verify" / "report.json").read_text())
    assert report["passed"] is True
    assert report["inclusion_violations"] == 0


@pytest.mark.parametrize("args", [
    # a rate above 1/Q makes update factors negative; the run used to pass
    ["alg2-verify", "--set", "alpha=1.5", "--set", "n_seeds=4"],
    # a valid rate whose weights overflow to inf/NaN over the horizon
    ["priming", "--set", "alpha=0.2", "--set", "n_traj=20"],
    ["priming", "--set", "alpha=1.5"],
    ["fig3-algorithm1", "--set", "base_alpha=0.45", "--set", "n_steps=3000"],
    # checkpoints past the horizon and empty ensembles used to write garbage rows
    ["thm22-verify", "--set", "n_steps=10", "--set", "checkpoints=[0,20]"],
    ["thm22-verify", "--set", "n_traj=0", "--set", "n_steps=10", "--set", "checkpoints=[0,10]"],
    ["thm-corr-verify", "--set", "n_steps=10", "--set", "checkpoints=[-1,10]"],
    # a zero record stride used to end in a ZeroDivisionError traceback
    ["fig3-algorithm1", "--set", "record_stride=0", "--set", "n_steps=10"],
    ["thm23-verify", "--set", "record_stride=0", "--set", "n_cases=2"],
    # negative horizons and empty batches used to pass, write empty files or
    # end with NaN rates
    ["thm22-verify", "--set", "n_steps=-1", "--set", "checkpoints=[]"],
    ["priming", "--set", "n_traj=0"],
    ["priming", "--set", "n_traj=-1"],
    ["alg2-verify", "--set", "alpha=0.05", "--set", "n_seeds=0"],
    ["correlated-figure", "--set", "n_traj=-1"],
    ["fig2-ensemble", "--set", "n_traj=0"],
    # no triggers to collect used to end in a ValueError traceback
    ["spiking-validate", "--set", "n_events=[0,0]"],
])
def test_invalid_rate_or_overflow_exits_3(tmp_path, args):
    assert run(args + ["--out", str(tmp_path), "--threads", "1"]) == 3
