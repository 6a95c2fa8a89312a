"""Tests for the command-line front end."""

import csv
import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import simplex_stdp
from simplex_stdp import _kernel, cli, dynamics, flow, multi
from simplex_stdp.simplex import probabilities_from_weights, replicator_field

# seconds a scenario that should stop at a precondition may run
LIMIT_S = 120


def run(args):
    return cli.main(args)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_unknown_scenario_exits_2(tmp_path):
    assert run(["no-such-scenario", "--out", str(tmp_path)]) == 2


def test_unknown_override_key_exits_2(tmp_path):
    assert run(["landscape-grid", "--out", str(tmp_path), "--set", "bogus=1"]) == 2
    # Q is the constant dynamics.Q_BOUND, not a key of the gap scenarios
    for scenario in ("thm22-verify", "thm-corr-verify"):
        assert run([scenario, "--out", str(tmp_path), "--set", "q_bound=2"]) == 2


def test_config_file_that_is_no_object_exits_2(tmp_path):
    # a JSON list used to end in an AttributeError traceback
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("[1]")
    assert run(["landscape-grid", "--out", str(tmp_path), "--config", str(cfg_file)]) == 2


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2(tmp_path, threads):
    # --threads -3 used to exit 0 and write "threads": -3 to the manifest;
    # the flag runs no threads, so neither does this test
    assert run(["landscape-grid", "--out", str(tmp_path), "--threads", threads]) == 2
    assert not (tmp_path / "landscape-grid").exists()


@pytest.mark.parametrize("scenario, sets", [
    ("fig2-ensemble", ["n_steps={}", "n_traj=4", "n_full_trajectories=2.0"]),
    ("thm22-verify", ["n_steps={}", "checkpoints=[0,{}]", "n_traj=4.0"]),
])
def test_integral_numbers_are_taken_for_integer_keys(tmp_path, scenario, sets):
    written = []
    for number in ("1000", "1e3", "1000.0"):
        args = [scenario, "--out", str(tmp_path / number), "--threads", "1"]
        for item in sets:
            args += ["--set", item.format(number)]
        assert run(args) in (0, 4)
        out = tmp_path / number / scenario
        written.append({name: read_bytes(out / name) for name in sorted(os.listdir(out))})
    assert written[1] == written[0] and written[2] == written[0]
    assert json.loads(written[0]["manifest.json"])["config"]["n_steps"] == 1000


@pytest.mark.parametrize("value", ["1.5", "true", "abc", "[1]", "1e400"])
def test_non_integral_values_for_integer_keys_exit_2(tmp_path, value):
    assert run(["thm22-verify", "--out", str(tmp_path), "--set", "n_traj=" + value]) == 2
    assert run(["thm22-verify", "--out", str(tmp_path),
                "--set", "checkpoints=[0,%s]" % value]) == 2


def test_precondition_violation_exits_3(tmp_path):
    # first coordinate not dominant
    code = run([
        "thm22-verify", "--out", str(tmp_path),
        "--set", "p0=[0.1,0.9]", "--set", "n_traj=2", "--set", "n_steps=10",
        "--set", "checkpoints=[0,10]",
    ])
    assert code == 3


def test_correlated_figure_checks_gamma_before_its_ensemble(tmp_path):
    """The landscape needs a 3 x 3 gamma: a 4 x 4 one stops the run before
    the ensemble writes final_states.csv, which it used to do before exiting 3."""
    gamma = json.dumps(np.eye(4).tolist())
    assert run(["correlated-figure", "--out", str(tmp_path), "--set", "p0=[0.25,0.25,0.25,0.25]",
                "--set", "gamma=" + gamma, "--set", "n_steps=200", "--set", "n_traj=2"]) == 3
    assert not list((tmp_path / "correlated-figure").glob("*.csv"))


def test_landscape_grid_outputs(tmp_path):
    assert run(["landscape-grid", "--out", str(tmp_path), "--set", "grid_step=0.02"]) == 0
    out = tmp_path / "landscape-grid"
    assert (out / "landscape.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "landscape-grid"
    assert "landscape.csv" in manifest["files"]
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True


def test_correlated_landscape_grid_reports_no_verdict(tmp_path):
    """The correlated landscape has no check: the run exits 0 and its report
    names no check and says passed is null, not true."""
    gamma = "gamma=[[1,0.2,0.1],[0.2,1,0.3],[0.1,0.3,1]]"
    assert run(["landscape-grid", "--out", str(tmp_path), "--set", "grid_step=0.05",
                "--set", gamma]) == 0
    report = json.loads((tmp_path / "landscape-grid" / "report.json").read_text())
    assert report["checks"] == {} and report["passed"] is None


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


def test_thm23_margins_of_a_passing_run_are_nonnegative(tmp_path):
    # at the defaults the margin at t = 0 used to read -2.2e-16 on a pass;
    # it is now read past t = 0, where the bound has room
    assert run(["thm23-verify", "--out", str(tmp_path)]) == 0
    out = tmp_path / "thm23-verify"
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True and report["worst_margin"] >= 0.0
    with open(out / "cases.csv") as fh:
        margins = [float(row["min_bound_margin"]) for row in csv.DictReader(fh)]
    assert len(margins) == report["n_cases"] and min(margins) == report["worst_margin"]
    # read at t = 0, every margin was the gate's 1e-12 allowance
    assert max(margins) > 1e-3


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_importing_the_package_pins_openblas_to_one_thread(preset, expected):
    """Idle OpenBLAS workers busy-wait after numpy's import; importing the
    package first leaves numpy one thread, unless the variable is set."""
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    root = os.path.dirname(os.path.dirname(simplex_stdp.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = ("import os, simplex_stdp.cli, numpy as np; np.dot(np.ones(3), np.ones(3)); "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    threads, value = done.stdout.split()
    assert value == expected
    if preset is None:
        assert threads == "1"


def test_importing_the_cli_freezes_the_import_time_objects():
    """Importing the CLI moves the objects made so far to the permanent
    generation, which the collector skips; a reference cycle made afterwards
    is still collected."""
    root = os.path.dirname(os.path.dirname(simplex_stdp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = (
        "import gc, weakref\n"
        "import simplex_stdp.cli\n"
        "frozen = gc.get_freeze_count()\n"
        "class Node:\n"
        "    pass\n"
        "node = Node()\n"
        "node.self = node\n"
        "ref = weakref.ref(node)\n"
        "del node\n"
        "gc.collect()\n"
        "print(frozen > 0, ref() is None)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["True", "True"]


def test_recording_runs_do_not_import_numpy_ma():
    """Recorded runs build their steps without np.unique, which imports
    numpy.ma (1.7 MiB with numpy 2.4) into every process that records."""
    root = os.path.dirname(os.path.dirname(simplex_stdp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from simplex_stdp import dynamics, flow, multi\n"
        "dynamics.run_trajectory(dynamics.DynamicsConfig(alpha=0.1, n_steps=10, p0=[0.6, 0.4],"
        " record_stride=3), 0)\n"
        "multi.joint_run(multi.MultiRunConfig(lam=[2.0, 1.0], w0=[[1.0, 0.5], [0.5, 1.0]],"
        " alphas=[0.1, 0.05], n_steps=10, record_stride=3), 0)\n"
        "flow.integrate(flow.FlowSpec(p0=[0.6, 0.4], horizon=1.0, dt=0.1, record_stride=3))\n"
        "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("args", [
    # a rate above 1/2 makes update factors negative; the run used to pass
    ["alg2-verify", "--set", "alpha=1.5", "--set", "n_seeds=4"],
    # non-finite intensities used to pass the intensity check and stop the
    # weight runs at their first step, or reach a cap check as NaN
    ["fig3-algorithm1", "--set", "lam=[1e400,7.5,5]", "--set", "n_steps=10"],
    ["priming", "--set", "alpha=1.5"],
    ["fig3-algorithm1", "--set", "lam=[NaN,7.5,5]", "--set", "n_steps=10"],
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
    # runs that checked nothing used to pass
    ["thm23-verify", "--set", "n_cases=0"],
    ["spiking-validate", "--set", "thresholds=[]", "--set", "n_events=[]"],
    ["thm22-verify", "--set", "checkpoints=[]", "--set", "n_steps=100", "--set", "n_traj=4"],
    ["mirror-compare", "--set", "alphas=[0.01]"],
    # these used to end in tracebacks or a failed verdict after a divide warning
    ["landscape-grid", "--set", "grid_step=0"],
    ["fig2-trajectories", "--set", "p0_list=[]"],
    ["thm23-verify", "--set", "dims=[]"],
    ["mirror-compare", "--set", "n_points=0"],
    # thresholds without a trigger count used to be dropped by zip
    ["spiking-validate", "--set", "thresholds=[5.0,10.0]", "--set", "n_events=[2000]"],
    # a gap no start reaches used to loop forever drawing starts
    ["thm23-verify", "--set", "min_gap=1.0", "--set", "n_cases=1"],
    ["thm23-verify", "--set", "min_gap=0.999", "--set", "dims=[8]", "--set", "n_cases=1"],
    ["thm23-verify", "--set", "min_gap=-0.1", "--set", "n_cases=1"],
    # a gamma for another dimension used to end in a ValueError traceback
    ["correlated-figure", "--set", "gamma=[[1,0],[0,1]]"],
    ["thm-corr-verify", "--set", "gamma=[[1,0],[0,1]]", "--set", "n_steps=10",
     "--set", "checkpoints=[0,10]"],
    # inputs of mismatched length used to end in tracebacks, or in a failed
    # verdict after a divide warning
    ["priming", "--set", "w0=[1,1,1]"],
    ["alg2-verify", "--set", "w0=[1,1]"],
    ["spiking-validate", "--set", "weights=[1,1]"],
    ["landscape-grid", "--set", "gamma=[[1,0],[0,1]]"],
    ["thm23-verify", "--set", "dims=[1]"],
    ["mirror-compare", "--set", "d=1"],
    # a NaN intensity used to reach the delta check as a NaN cap
    ["alg2-verify", "--set", "lam=[10,NaN,5]", "--set", "n_seeds=4"],
    # ragged or non-numeric array overrides used to end in tracebacks
    ["correlated-figure", "--set", "gamma=[[1,0,0],[0,1]]"],
    ["thm-corr-verify", "--set", "gamma=[[1,0.1,0.1],[0.1,1]]"],
    ["thm22-verify", "--set", "p0=[[0.9],[0.1,0]]"],
    ["thm22-verify", "--set", "p0=abc"],
    ["priming", "--set", "w0=[[1],[1,2]]"],
    ["alg2-verify", "--set", "lam=[10,[7.5],5]"],
    ["fig3-algorithm1", "--set", "lam=[[10,1],[7.5]]"],
    ["landscape-grid", "--set", "gamma=[[1,0],[0]]"],
    # without gamma the correlated scenario would check independent triggers
    ["thm-corr-verify", "--set", "gamma=null"],
    # a zero rate or a w0 with no usable gap used to end in a traceback
    # before any run, computing the iteration count
    ["priming", "--set", "alpha=0", "--set", "n_traj=4"],
    ["alg2-verify", "--set", "alpha=0", "--set", "n_seeds=4"],
    ["alg2-verify", "--set", "w0=[0,0,0]", "--set", "n_seeds=4"],
    ["alg2-verify", "--set", "w0=[1,1,1e400]", "--set", "alpha=0.05", "--set", "n_seeds=4"],
    ["alg2-verify", "--set", "lam=[10]", "--set", "w0=[1]"],
    # negative weights, or a deflated column with no weight left, used to run
    # and end in a failed verdict
    ["alg2-verify", "--set", "w0=[1,1,-1]", "--set", "alpha=0.05", "--set", "n_seeds=4"],
    ["alg2-verify", "--set", "w0=[1,0,0]", "--set", "alpha=0.05", "--set", "n_seeds=4"],
    # no noise samples used to end in a ValueError traceback
    ["spiking-validate", "--set", "noise_samples=0", "--set", "n_events=[200,100]"],
    # a flow step too coarse for the data, or an unbounded horizon, used to
    # end in a traceback; a NaN flow state used to pass
    ["thm23-verify", "--set", "n_cases=3", "--set", "dt=20", "--set", "horizon=60"],
    ["thm23-verify", "--set", "n_cases=3", "--set", "horizon=Infinity"],
    ["thm23-verify", "--set", "n_cases=3", "--set", "dt=1e30", "--set", "horizon=2e30",
     "--set", "record_stride=1"],
    # a recording of 1e14 rows used to fail to allocate 728 TiB, a traceback
    ["thm23-verify", "--set", "n_cases=1", "--set", "horizon=1e12", "--set", "record_stride=1"],
    # these thresholds used to reach int() through the Poisson horizon, a traceback
    ["spiking-validate", "--set", "thresholds=[NaN]", "--set", "n_events=[1000]"],
    ["spiking-validate", "--set", "thresholds=[Infinity]", "--set", "n_events=[1000]"],
    # a horizon shorter than half a step checks the bound at t = 0 only,
    # where it holds with equality, and used to pass
    ["thm23-verify", "--set", "n_cases=2", "--set", "horizon=0"],
    # one coordinate has no gap to keep: these used to end in a ValueError traceback
    ["thm22-verify", "--set", "p0=[1]"],
    ["thm-corr-verify", "--set", "p0=[1]", "--set", "gamma=[[1]]"],
    ["priming", "--set", "lam_first=[1]", "--set", "lam_second=[1]", "--set", "w0=[1]"],
    # a gamma that is no correlation matrix used to give a landscape
    ["landscape-grid", "--set", "gamma=[[1,2,0],[-1,1,0],[0,0,5]]", "--set", "grid_step=0.1"],
    # without gamma the correlated figure used to write the cubic-quartic loss
    # as its correlated landscape, next to an ensemble of independent triggers
    ["correlated-figure", "--set", "gamma=null", "--set", "n_steps=10", "--set", "n_traj=2"],
])
def test_invalid_rate_or_overflow_exits_3(tmp_path, args):
    # a run that does not end fails here instead of hanging the suite
    def expire(signum, frame):
        raise TimeoutError("%s did not end within %d s" % (args[0], LIMIT_S))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        assert run(args + ["--out", str(tmp_path), "--threads", "1"]) == 3
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("args, code", [
    # each used to exit 3 when its weights overflowed: alg2-verify after 14498
    # steps of its first column, the others through the lam * w sums or the
    # joint scheme's column norms. They now run to their last step; the
    # exit codes are those measured, alg2-verify failing its success-rate gate.
    (["alg2-verify", "--set", "alpha=0.05", "--set", "epsilon=0.01", "--set", "n_seeds=8"], 4),
    (["priming", "--set", "alpha=0.2", "--set", "n_traj=20"], 0),
    (["fig3-algorithm1", "--set", "base_alpha=0.45", "--set", "n_steps=3000"], 0),
    (["fig3-algorithm1", "--set", "base_alpha=0.45", "--set", "n_steps=1200",
      "--set", "record_stride=1200"], 0),
])
def test_weight_runs_past_the_old_overflow_step_finish(tmp_path, args, code):
    assert run(args + ["--out", str(tmp_path), "--threads", "1"]) == code
    out = tmp_path / args[0]
    for name in sorted(os.listdir(out)):
        if name.endswith(".csv"):
            with open(out / name) as fh:
                rows = list(csv.reader(fh))[1:]
            # every cell but the priming phase labels is a number
            values = [float(cell) for row in rows for cell in row
                      if cell not in ("unprimed", "primed")]
            assert rows and all(math.isfinite(v) for v in values), name


def _planted(tmp_path, monkeypatch, args, patches):
    """The reports of args at seed 3, run as it is and then with the
    (module, name, replacement) patches applied."""
    reports = []
    for side in ("plain", "planted"):
        if side == "planted":
            for module, name, value in patches:
                monkeypatch.setattr(module, name, value)
        code = run(args + ["--seed", "3", "--out", str(tmp_path / side), "--threads", "1"])
        reports.append((code, json.loads((tmp_path / side / args[0] / "report.json").read_text())))
    return reports


def test_thm23_gate_fails_when_the_flow_runs_backwards(tmp_path, monkeypatch):
    """The numpy flow with the replicator field negated: every recorded step
    of the 6 cases breaks the bound, and the gate fails."""
    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch, ["thm23-verify", "--set", "n_cases=6", "--set", "horizon=2.0"],
        [(_kernel, "library", lambda: None),
         (flow, "replicator_field", lambda p, fitness=None: -replicator_field(p, fitness))])
    assert code == 0 and plain["passed"] is True and plain["violations"] == 0
    assert plain["checks"]["flow_bound"] is True and bad["checks"]["flow_bound"] is False
    assert bad_code == 4 and bad["passed"] is False
    assert bad["violations"] == 120 and bad["worst_margin"] < 0.0


def test_alg2_gate_fails_without_deflation(tmp_path, monkeypatch):
    """Algorithm 2 with every column trained from w0 itself, no axis of a
    trained column zeroed: the columns find the same axis, so no member
    succeeds and the success-rate gate fails."""
    def undeflated(lam, w0, alpha, k_per_column, prefixes):
        lam = np.asarray(lam, dtype=float)
        p0 = [probabilities_from_weights(lam, w0)] * len(prefixes)
        return np.stack([dynamics.simulate(p0, alpha, k_per_column,
                                           [prefix + (j,) for prefix in prefixes]) / lam
                         for j in range(len(w0))], axis=2)

    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch, ["alg2-verify", "--set", "alpha=0.05", "--set", "n_seeds=10"],
        [(multi, "_train_columns", undeflated)])
    assert code == 0 and plain["passed"] is True
    assert plain["success_rate"] >= plain["required_rate"]
    assert plain["checks"]["success_rate"] is True and bad["checks"]["success_rate"] is False
    assert bad_code == 4 and bad["passed"] is False and bad["success_rate"] == 0.0
