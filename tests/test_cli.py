"""Tests for the command-line front end."""

import csv
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import simplex_stdp
from simplex_stdp import _kernel, cli, dynamics, flow, mirror, multi, simplex, spiking, theory
from simplex_stdp.simplex import landscape_grid, probabilities_from_weights, replicator_field
from small_runs import small_args

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


# a run at criterion 13's size whose success rate, 0.4, falls below the
# floor of 0.462 on sampling alone; a slack of 0.5 would lower that floor to 0.012
SEED_5_ALG2 = small_args("alg2-verify", seed=5)


@pytest.mark.parametrize("args, code", [
    pytest.param(small_args(scenario) + ["--set", "%s=%r" % (key, value)], 2,
                 id="%s-%s" % (scenario, key))
    for scenario, key, value in [
        ("priming", "slack", 0.05),
        ("thm22-verify", "probability_slack", 0.05),
        ("thm22-verify", "bound_slack", 1.1),
        ("thm-corr-verify", "probability_slack", 0.07),
        ("thm-corr-verify", "bound_slack", 1.1),
        ("alg2-verify", "slack", 0.05),
        ("mirror-compare", "ratio_low", 80.0),
        ("mirror-compare", "ratio_high", 120.0),
    ]
] + [
    pytest.param(SEED_5_ALG2 + ["--set", "slack=0.5"], 2, id="seed-5-alg2-verify-slack"),
    pytest.param(["landscape-grid", "--config", "cfg.json"], 2, id="config-file"),
    pytest.param(SEED_5_ALG2, 4, id="seed-5-alg2-verify"),
])
def test_no_option_moves_a_gate(tmp_path, monkeypatch, args, code):
    """The gate slacks and the mirror band are constants of the program, not
    config keys, and no config file can be read: each of these exits 2, and
    a failing gate still exits 4."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"grid_step": 0.5}))
    try:
        got = run(args + ["--out", str(tmp_path), "--threads", "1"])
    except SystemExit as exc:
        got = exc.code
    assert got == code


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


def test_correlated_landscape_grid_checks_its_lattice_minimum(tmp_path, monkeypatch):
    """-1/2 p^T gamma p is -1/2 at each vertex and above it elsewhere, and the
    correlated landscape checks both. A lattice that drops the face p_3 = 0
    keeps the minimum at the third vertex but loses the other two, and
    fails."""
    def faceless(grid_step):
        pts, x, y, vals = landscape_grid(grid_step)
        keep = pts[:, 2] > 0
        return pts[keep], x[keep], y[keep], vals[keep]

    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch,
        small_args("landscape-grid") + ["--set", "gamma=[[1,0.2,0.1],[0.2,1,0.3],[0.1,0.3,1]]"],
        [(cli, "landscape_grid", faceless)])
    assert code == 0 and plain["checks"] == {"lattice_minimum": True} and plain["passed"] is True
    assert plain["min_value"] == bad["min_value"] == -0.5
    assert bad_code == 4 and bad["checks"] == {"lattice_minimum": False}


def test_a_verdict_needs_a_named_check(tmp_path, monkeypatch):
    """A verification report that names no check fails rather than passes:
    there is no null verdict, and all() of nothing is no evidence."""
    monkeypatch.setitem(cli.SCENARIOS, "landscape-grid",
                        lambda cfg, out, seed: ([], {"checks": {}}))
    assert run(["landscape-grid", "--out", str(tmp_path), "--threads", "1"]) == 4
    report = json.loads((tmp_path / "landscape-grid" / "report.json").read_text())
    assert report["passed"] is False


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
    """Recorded runs build and mark their steps without np.unique, which
    imports numpy.ma (about 1.25 MB of peak RSS with numpy 2.4) into every
    process that records. np.isin calls it from about 20 checkpoints on, so
    the runs include fig2-ensemble's defaults (101 checkpoints) and
    fig3-algorithm1's (401)."""
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
        "dynamics.run_trajectory(dynamics.DynamicsConfig(alpha=0.01, n_steps=2000,"
        " p0=[0.3, 0.3, 0.4], record_stride=20), 0)\n"
        "multi.joint_run(multi.MultiRunConfig(lam=[10.0, 7.5, 5.0], w0=[[1.0] * 3] * 3,"
        " alphas=[1e-3, 7.5e-4, 5e-4], n_steps=40000, record_stride=100), 0)\n"
        "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False"]


def test_unreachable_threshold_exits_3(tmp_path):
    # weights of 1 hold the potential near the summed rate, 22.5, far below
    # the threshold: the walk once drew blocks forever and now stops at its
    # event budget, about 0.7 s compiled and 3 s on the Python membrane
    root = os.path.dirname(os.path.dirname(simplex_stdp.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "simplex_stdp.cli", "spiking-validate",
                           "--set", "thresholds=[1e6]", "--set", "n_events=[10]",
                           "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=LIMIT_S)
    assert done.returncode == 3 and "not reached" in done.stderr


def _traced_peak(run, n):
    """Peak of the memory traced while run(n) runs, over what was traced
    before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(n)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _numpy_steps(n_traj):
    """8000 steps of n_traj rows at d = 2 on the numpy step, as without a C
    compiler: from 10 rows on, more than CHUNK // n_traj steps, so that one
    segment would hold the draws of all n_traj * 8000 row-steps."""
    with mock.patch.object(_kernel, "library", lambda: None):
        dynamics.simulate(np.tile([0.6, 0.4], (n_traj, 1)), 0.01, 8000, list(range(n_traj)))


@pytest.mark.parametrize("name, n", [("collect_triggers", 300), ("centered_noise_stats", 10**5),
                                     ("write_csv", 10**4), ("numpy_steps", 10)])
def test_memory_does_not_grow_with_the_run(tmp_path, name, n):
    # the Poisson input, the noise draws, the CSV text and the numpy steps'
    # draws are made in blocks; only the returned trigger ids, write_csv's
    # own input and the rows and their streams grow
    columns = [np.arange(10 * n), np.linspace(0, 1, 10 * n), np.arange(10 * n) % 2 == 0]
    runs = {
        "collect_triggers": lambda k: spiking.collect_triggers(
            [10.0, 7.5, 5.0], [1.0, 1.0, 1.0], 30.0, k, np.random.default_rng(7)),
        "centered_noise_stats": lambda k: spiking.centered_noise_stats(
            0.0, 1.0, k, np.random.default_rng(7)),
        "write_csv": lambda k: cli.write_csv(str(tmp_path / "t.csv"), ["a", "b", "c"],
                                             [c[:k] for c in columns]),
        "numpy_steps": _numpy_steps,
    }
    small, large = _traced_peak(runs[name], n), _traced_peak(runs[name], 10 * n)
    assert large - small < 1 << 20, (small, large)


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
    # rates outside (0, 1/2) used to pass the mirror comparison
    ["mirror-compare", "--set", "alphas=[-0.01,-0.001,-0.0001]"],
    ["mirror-compare", "--set", "alphas=[0.01,-0.001,0.0001]"],
    # floors at or below 0, and a tolerance no deviation exceeds, used to pass
    # whatever the runs did
    ["priming", "--set", "epsilon=0.6"],
    small_args("alg2-verify") + ["--set", "epsilon=0.7"],
    ["spiking-validate", "--set", "tolerance=1"],
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
    """The reports of args, run as it is and then with the (module, name,
    replacement) patches applied."""
    reports = []
    for side in ("plain", "planted"):
        if side == "planted":
            for module, name, value in patches:
                monkeypatch.setattr(module, name, value)
        code = run(args + ["--out", str(tmp_path / side), "--threads", "1"])
        reports.append((code, json.loads((tmp_path / side / args[0] / "report.json").read_text())))
    return reports


def test_thm23_gate_fails_when_the_flow_runs_backwards(tmp_path, monkeypatch):
    """The numpy flow with the replicator field negated: every recorded step
    of the 6 cases breaks the bound, and the gate fails."""
    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch, small_args("thm23-verify"),
        [(_kernel, "library", lambda: None),
         (flow, "replicator_field", lambda p, fitness=None: -replicator_field(p, fitness))])
    assert code == 0 and plain["passed"] is True and plain["violations"] == 0
    assert plain["checks"]["flow_bound"] is True and bad["checks"]["flow_bound"] is False
    assert bad_code == 4 and bad["passed"] is False
    assert bad["violations"] == 120 and bad["worst_margin"] < 0.0


def test_thm23_batches_record_no_more_rows_per_call_than_one_start_may(tmp_path, monkeypatch):
    """thm23-verify integrates its starts together, each call recording at
    most MAX_RECORDED_ROWS rows over its starts. At the defaults the 100
    starts record 101 rows each: one call, or two starts to a call under a
    cap of 250 rows, with the same outputs."""
    calls = []

    def counted(spec):
        traj = flow.integrate(spec)
        calls.append(traj.renorm_corrections.size)
        return traj

    monkeypatch.setattr(cli, "integrate", counted)
    outputs = []
    for side, cap in (("one", simplex.MAX_RECORDED_ROWS), ("capped", 250)):
        monkeypatch.setattr(simplex, "MAX_RECORDED_ROWS", cap)
        del calls[:]
        assert run(["thm23-verify", "--out", str(tmp_path / side)]) == 0
        assert max(calls) <= cap
        out = tmp_path / side / "thm23-verify"
        outputs.append({name: read_bytes(out / name) for name in sorted(os.listdir(out))})
    assert calls == [2 * 101] * 50
    assert outputs[0] == outputs[1]


def test_thm22_inclusion_gate_fails_above_the_rate_cap(tmp_path, monkeypatch):
    """thm22-verify stepped at 0.45, far above Theorem 2.2's cap, from the
    start (0.87, 0.13): at seed 316 the gap event ends with the martingales
    still bounded 100 times, so the inclusion gate fails while the gap-event
    probability, 0.75, still clears its floor of 0.70."""
    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch,
        ["thm22-verify", "--seed", "316", "--set", "p0=[0.87,0.13]", "--set", "n_traj=4",
         "--set", "n_steps=100", "--set", "checkpoints=[0,7,60,100]"],
        [(theory, "max_alpha", lambda params: 0.45)])
    assert code == 0 and plain["passed"] is True and plain["inclusion_violations"] == 0
    assert bad_code == 4 and bad["passed"] is False and bad["inclusion_violations"] == 100
    assert bad["checks"] == {"gap_event_probability": True, "bound_domination": True,
                             "inclusion": False}


def test_priming_gate_fails_when_the_intensities_never_switch(tmp_path, monkeypatch):
    """The priming runs without their switch to the second intensities: the
    unprimed runs stay on the first coordinate rather than move to the last."""
    def unswitched(*args, switch=None, **kwargs):
        return dynamics.simulate(*args, **kwargs)

    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch, small_args("priming"),
        [(theory, "simulate", unswitched)])
    assert code == 0 and plain["passed"] is True and plain["unprimed_fractions"] == [0.0, 1.0]
    assert bad_code == 4 and bad["passed"] is False and bad["unprimed_fractions"] == [1.0, 0.0]
    assert bad["checks"] == {"unprimed_to_last": False, "primed_to_first": True}


def test_mirror_gate_fails_when_the_surrogate_steps_at_twice_the_rate(tmp_path, monkeypatch):
    """A multiplicative step at 2 alpha differs from the entropic step at
    first order, so the gap falls only tenfold with the rate: the ratios
    drop from about 99 to about 9.8, out of their band."""
    step = mirror.multiplicative_step
    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch, small_args("mirror-compare"),
        [(mirror, "multiplicative_step", lambda p, alpha: step(p, 2.0 * alpha))])
    assert code == 0 and plain["passed"] is True
    assert all(95.0 < r < 105.0 for r in plain["ratios"])
    assert bad_code == 4 and bad["checks"] == {"ratio_band": False}
    assert all(9.0 < r < 11.0 for r in bad["ratios"])


def test_noise_gate_fails_on_an_off_centre_kernel(tmp_path, monkeypatch):
    """A pair kernel whose depression term is 1% short has the mean
    0.01 (1 - 1/e) = 0.0063 on the unit window, 3.5 times the bound at the
    default 10^6 samples: the noise gate fails, the trigger gate holds."""
    def short(tau, t_prev, t_next):
        return np.exp(tau - t_next) - 0.99 * np.exp(t_prev - tau)

    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch,
        small_args("spiking-validate") + ["--set", "noise_samples=1000000"],
        [(spiking, "pair_kernel", short)])
    assert code == 0 and plain["passed"] is True
    assert abs(plain["noise_mean"]) < plain["noise_mean_bound"]
    assert plain["checks"]["noise_centered"] is True
    assert bad["checks"] == {"trigger_frequencies": True, "noise_centered": False}
    assert bad_code == 4 and bad["passed"] is False


@pytest.mark.parametrize("check", ["noise_centered", "trigger_frequencies"])
def test_spiking_gate_fails_on_its_own_defect(tmp_path, monkeypatch, check):
    """At criterion 13's sizes, a pair kernel raised by 0.05 moves the noise
    mean by 0.05, past its bound of 0.018, and a membrane that hands each
    spike to the next neuron moves the trigger frequencies about 0.2 off
    their targets: each fails its own check, and only it."""
    kernel, membrane = spiking.pair_kernel, spiking.membrane

    def shifted(times, ids, w, threshold, state, cap):
        spikes, triggers, walked = membrane(times, ids, w, threshold, state, cap)
        return spikes, (triggers + 1) % len(w), walked

    defects = {"noise_centered": ("pair_kernel", lambda *args: kernel(*args) + 0.05),
               "trigger_frequencies": ("membrane", shifted)}
    name, defect = defects[check]
    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch, small_args("spiking-validate"), [(spiking, name, defect)])
    assert code == 0 and plain["checks"] == {"trigger_frequencies": True, "noise_centered": True}
    assert bad_code == 4 and bad["passed"] is False
    assert bad["checks"] == {key: key != check for key in plain["checks"]}
    if check == "noise_centered":
        assert bad["noise_mean"] == pytest.approx(plain["noise_mean"] + 0.05, abs=1e-12)


def _unreset_membrane(times, ids, w, threshold, state, cap):
    """`spiking._membrane_loop` without its reset to zero after a spike."""
    y, t_prev = float(state[0]), float(state[1])
    spikes, triggers, walked = [], [], 0
    for t, j in zip(times.tolist(), ids.tolist()):
        y = y * math.exp(t_prev - t) + w[j]
        t_prev = t
        walked += 1
        if y >= threshold:
            spikes.append(t)
            triggers.append(j)
            if len(spikes) == cap:
                break
    state[0], state[1] = y, t_prev
    return np.array(spikes), np.array(triggers, dtype=np.int64), walked


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "trigger_frequencies cannot see the weights at its default w = (1, 1, 1), where "
    "lam w / <lam, w> equals the raw input frequencies: a membrane that skips its reset, "
    "or treats every weight as 1, still passes"))
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("defect", ["no_reset", "unit_weights"])
def test_trigger_gate_fails_on_a_broken_membrane(tmp_path, monkeypatch, defect, seed):
    """The Python walk with 20000 and 5000 triggers at criterion 13's
    tolerance: the unpatched run passes, and a membrane that never resets,
    or reads every weight as 1, should fail the trigger check."""
    membrane = spiking.membrane
    defects = {"no_reset": _unreset_membrane,
               "unit_weights": lambda times, ids, w, *rest: membrane(times, ids, np.ones(len(w)),
                                                                     *rest)}
    monkeypatch.setattr(_kernel, "library", lambda: None)
    (code, plain), (bad_code, bad) = _planted(
        tmp_path, monkeypatch,
        small_args("spiking-validate", seed) + ["--set", "n_events=[20000,5000]"],
        [(spiking, "membrane", defects[defect])])
    if code != 0:
        # not an AssertionError, so the expected failure cannot hide it
        pytest.fail("the unpatched run failed: %r" % plain["checks"])
    assert bad_code == 4 and bad["checks"]["trigger_frequencies"] is False


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
        tmp_path, monkeypatch, small_args("alg2-verify"),
        [(multi, "_train_columns", undeflated)])
    assert code == 0 and plain["passed"] is True
    assert plain["success_rate"] >= plain["required_rate"]
    assert plain["checks"]["success_rate"] is True and bad["checks"]["success_rate"] is False
    assert bad_code == 4 and bad["passed"] is False and bad["success_rate"] == 0.0


@pytest.mark.parametrize("scenario, cap", [("priming", 3.16e-6), ("alg2-verify", 4.35e-8)])
def test_reports_say_whether_the_rate_is_within_the_theorem(tmp_path, scenario, cap):
    """At their default rate, 1e-3, both gates run far above Theorem 2.2's
    step-size cap on their subproblems, so their passes are empirical. The
    cap of alg2-verify is its first subproblem's, (4/9, 1/3, 2/9); the
    deflated second, (0.6, 0, 0.4), allows 3.7e-7."""
    # criterion 13's alg2-verify steps at 0.05, so this one keeps the default rate
    runs = {"priming": small_args("priming"), "alg2-verify": [scenario, "--set", "n_seeds=1"]}
    assert run(runs[scenario] + ["--out", str(tmp_path), "--threads", "1"]) in (0, 4)
    report = json.loads((tmp_path / scenario / "report.json").read_text())
    assert report["theorem_alpha_cap"] == pytest.approx(cap, rel=2e-3)
    assert report["within_theorem"] is False
    params = theory.GapParams(p0=[4 / 9, 1 / 3, 2 / 9] if scenario == "alg2-verify"
                              else [2 / 3, 1 / 3], epsilon=0.2)
    assert report["theorem_alpha_cap"] == pytest.approx(theory.max_alpha(params), rel=1e-12)
