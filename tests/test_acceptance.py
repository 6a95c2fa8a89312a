"""Acceptance suite: one test per release criterion.

Each test prints a single summary line on success so a verbose run doubles as
the acceptance report. The heavy ensemble criteria (9, 10, 11) take 7 to 9 s
each on a 2-core VM; everything else takes a few seconds or less.
"""

import hashlib
import itertools
import json
import os
from unittest import mock

import numpy as np
import pytest
import scipy.stats

from simplex_stdp import cli, dynamics, flow, mirror, multi, simplex, spiking, theory


def _report(line):
    print(line)


# -- 1. landscape critical points ------------------------------------------

def test_criterion_01_critical_points():
    points = simplex.critical_points(3)
    assert len(points) == 7
    ones = np.ones(3)
    for cp in points:
        g = simplex.loss_gradient(cp.point)
        g_tan = g - g.mean() * ones  # projected onto the simplex tangent
        assert np.abs(g_tan).max() < 1e-14
    minima = [cp for cp in points if cp.kind == "minimum"]
    assert len(minima) == 3
    assert all(len(cp.support) == 1 for cp in minima)
    values = sorted(set(round(cp.value, 15) for cp in points))
    targets = [-1.0 / 12.0, -1.0 / 48.0, -1.0 / 108.0]
    for v, t in zip(values, sorted(targets)):
        assert abs(v - t) < 1e-12
    _report("criterion 01 PASS: 7 critical points, 3 vertex minima, values exact")


# -- 2. exact flow oracle ----------------------------------------------------

def test_criterion_02_flow_oracle_and_order():
    spec = flow.FlowSpec(p0=np.array([0.75, 0.25]), horizon=10.0, dt=1e-3,
                         record_stride=100)
    traj = flow.integrate(spec)
    exact = flow.exact_d2(0.75, traj.times)
    err_fine = np.abs(traj.states[:, 0] - exact).max()
    assert err_fine < 1e-6

    # dt = 1e-3 sits at the roundoff floor, so the 4th-order convergence
    # check runs on a coarse pair where truncation error still dominates
    errs = []
    for dt in (0.2, 0.1):
        s = flow.FlowSpec(p0=np.array([0.75, 0.25]), horizon=10.0, dt=dt,
                          record_stride=1)
        t = flow.integrate(s)
        errs.append(np.abs(t.states[:, 0] - flow.exact_d2(0.75, t.times)).max())
    ratio = errs[0] / errs[1]
    assert ratio >= 12.0
    _report("criterion 02 PASS: sup error %.2e at dt=1e-3, halving ratio %.1f"
            % (err_fine, ratio))


# -- 3. flow convergence bound ----------------------------------------------

def test_criterion_03_flow_bound_random_starts():
    rng = np.random.default_rng(2023)
    dims = [2, 3, 5]
    violations = 0
    n_cases = 0
    for i in range(100):
        d = dims[i % len(dims)]
        while True:
            p0 = rng.dirichlet(np.ones(d))
            gap, star = flow.flow_gap(p0)
            if gap >= 0.05:
                break
        spec = flow.FlowSpec(p0=p0, horizon=10.0, dt=0.01, record_stride=10)
        traj = flow.integrate(spec)
        err = np.abs(traj.states - np.eye(d)[star]).sum(axis=1)
        bound = flow.flow_bound(p0, traj.times)
        # the bound is tight (equality) at t=0, so give rounding headroom
        violations += int(np.sum(err > bound + 1e-12))
        n_cases += 1
    assert n_cases == 100
    assert violations == 0
    _report("criterion 03 PASS: 0 bound violations over 100 random flows")


# -- 4. exact step decomposition ---------------------------------------------

def test_criterion_04_step_decomposition():
    rng = np.random.default_rng(404)
    noise = dynamics.NoiseModel()
    d = 4
    n_per_alpha = 333_334
    worst_residual = 0.0
    bound_violations = 0
    for alpha in (1e-1, 1e-2, 1e-3):
        p = rng.dirichlet(np.ones(d), size=n_per_alpha)
        cum = np.cumsum(p, axis=1)
        idx = (rng.random((n_per_alpha, 1)) > cum).sum(axis=1)
        np.minimum(idx, d - 1, out=idx)
        y = np.eye(d)[idx] + noise.sample(rng, (n_per_alpha, d))
        drift, xi, theta, bound, p_next = dynamics.decompose_steps_batch(p, alpha, y)
        residual = np.abs(p_next - (p + alpha * drift - alpha * xi - theta)).max()
        worst_residual = max(worst_residual, residual)
        bound_violations += int(np.sum(np.abs(theta) > bound + 1e-15))
    assert worst_residual < 1e-13
    assert bound_violations == 0
    _report("criterion 04 PASS: 1e6 steps, max residual %.1e, 0 bound violations"
            % worst_residual)


# -- 5. gap-event guarantee, independent triggers (desk scale) ----------------

def test_criterion_05_gap_event_desk_scale():
    params = theory.GapParams(p0=np.array([0.9, 0.1]), epsilon=0.5)
    alpha = theory.max_alpha(params)
    assert abs(alpha - 4.4e-4) < 1e-4
    checkpoints = [0, 50_000, 100_000, 150_000, 200_000]
    _, tracker = theory.run_gap_ensemble(params.p0, alpha, 200_000, 200, seed=505,
                                         checkpoints=checkpoints)
    report = theory.verification_report(params, alpha, tracker)
    prob = report["empirical_gap_event_probability"]
    assert prob >= 0.70
    for row in report["checkpoints"]:
        assert row["on_event_mean_l1_error"] <= 1.1 * row["bound"]
    assert report["inclusion_violations"] == 0
    _report("criterion 05 PASS: P(event)=%.3f, bound dominated at all "
            "checkpoints, 0 inclusion violations" % prob)


# -- 6. spike-trigger probabilities -------------------------------------------

def test_criterion_06_trigger_probabilities():
    lam = np.array([10.0, 7.5, 5.0])
    target = lam / lam.sum()  # (4/9, 1/3, 2/9)
    devs = []
    for threshold, n_events, seed in ((5.0, 100_000, 6), (30.0, 30_000, 7)):
        rng = np.random.default_rng(seed)
        ids = spiking.collect_triggers(lam, np.ones(3), threshold, n_events, rng)
        freqs = np.bincount(ids, minlength=3) / n_events
        dev = np.abs(freqs - target).max()
        assert dev < 0.01
        devs.append(dev)
    _report("criterion 06 PASS: trigger frequency deviations %.4f (S=5), "
            "%.4f (S=30)" % tuple(devs))


# -- 7. centered pair-kernel noise --------------------------------------------

def test_criterion_07_kernel_noise():
    rng = np.random.default_rng(77)
    a, b = 0.0, 1.0
    # dyadic sample points make the reflection b - tau exact in float,
    # so antisymmetry can be checked bit-for-bit
    tau = rng.integers(0, 2**20 + 1, size=1_000_000) / 2.0**20
    vals = spiking.pair_kernel(tau, a, b)
    assert np.all(vals >= -1.0) and np.all(vals <= 1.0)
    assert abs(vals.mean()) < 0.002
    assert np.array_equal(spiking.pair_kernel(b - tau, a, b), -vals)
    _report("criterion 07 PASS: 1e6 samples in [-1,1], |mean|=%.1e, "
            "antisymmetry exact" % abs(vals.mean()))


# -- 8. mirror-descent second-order agreement ---------------------------------

def test_criterion_08_mirror_order():
    rng = np.random.default_rng(88)
    alphas = np.array([1e-2, 1e-3, 1e-4])
    ratios = []
    for _ in range(100):
        p = rng.dirichlet(np.ones(3))
        gaps = mirror.order_comparison(p, alphas)
        r = gaps[:-1] / gaps[1:]
        assert np.all(r >= 80.0) and np.all(r <= 120.0)
        ratios.append(r)
    lo, hi = np.min(ratios), np.max(ratios)
    _report("criterion 08 PASS: decade ratios in [%.1f, %.1f]" % (lo, hi))


# -- 9. gap-event guarantee, correlated triggers ------------------------------

def test_criterion_09_correlated_desk_scale():
    p0 = np.array([0.8, 0.1, 0.1])
    gamma = np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]])
    params = theory.GapParams(p0=p0, gamma=gamma, epsilon=0.5)
    assert abs(params.gap - 0.7) < 1e-15
    assert abs(params.gap_gamma - 0.64) < 1e-15
    assert abs(params.nu - 0.1) < 1e-15
    assert abs(params.c_star - 8e-4) < 1e-15

    # identity correlation must reduce to the independent-trigger constants
    ident = theory.GapParams(p0=p0, gamma=np.eye(3), epsilon=0.5)
    base = theory.GapParams(p0=p0, epsilon=0.5)
    a_corr = theory.max_alpha(ident)
    a_base = theory.max_alpha(base)
    assert abs(a_corr - a_base) < 1e-10 * a_base

    alpha = theory.max_alpha(params)
    assert abs(alpha - 5e-5) < 1e-5
    n_steps = 2_500_000
    checkpoints = list(range(0, n_steps + 1, 500_000))
    _, tracker = theory.run_gap_ensemble(p0, alpha, n_steps, 50, seed=909,
                                         gamma=gamma, checkpoints=checkpoints)
    report = theory.verification_report(params, alpha, tracker)
    prob = report["empirical_gap_event_probability"]
    assert prob >= 1.0 - 0.25 - 0.07
    for row in report["checkpoints"]:
        assert row["on_event_mean_l1_error"] <= 1.1 * row["bound"]
    assert report["inclusion_violations"] == 0
    _report("criterion 09 PASS: worked-example constants exact, identity "
            "reduction exact, P(event)=%.3f" % prob)


# -- 10. sequential multi-output guarantee ------------------------------------

def test_criterion_10_sequential_success_rate():
    lam = np.array([10.0, 7.5, 5.0])
    w0 = np.ones(3)
    alpha, epsilon, delta = 1e-3, 0.2, 0.25
    # the binding gap across deflation stages: (4/9 - 1/3) then (0.6 - 0.4)
    gaps = []
    active = np.ones(3, dtype=bool)
    for j in range(2):
        p = lam * active / float(np.dot(lam, active))
        top = np.sort(p[active])[::-1]
        gaps.append(top[0] - top[1])
        active[j] = False
    k = multi.required_iterations(3, alpha, min(gaps), epsilon, delta)
    success = multi.sequential_success_ensemble(lam, w0, alpha, k, 200, seed=1010)
    rate = success.mean()
    assert rate >= (1.0 - epsilon) ** 3 - 0.05
    _report("criterion 10 PASS: success rate %.3f >= 0.462 at K=%d" % (rate, k))


# -- 11. joint multi-output rate effect ---------------------------------------

def test_criterion_11_joint_rate_effect():
    lam = np.array([10.0, 7.5, 5.0])
    w0 = np.ones((3, 3))
    scale = np.array([1.0, 0.75, 0.5])
    errs = {}
    for base, n_steps in ((1e-3, 40_000), (1e-4, 400_000)):
        errs[base] = multi.joint_final_errors(lam, w0, base * scale, n_steps,
                                              n_seeds=100, seed=1111)
    stat = scipy.stats.mannwhitneyu(errs[1e-3], errs[1e-4],
                                    alternative="greater")
    assert errs[1e-4].mean() < errs[1e-3].mean()
    assert stat.pvalue < 0.05
    pooled = np.concatenate([errs[1e-3], errs[1e-4]])
    near_integer = np.abs(pooled - np.round(pooled)) < 0.15
    assert np.all(np.round(pooled[near_integer]) <= 3)
    assert near_integer.mean() >= 0.90
    _report("criterion 11 PASS: mean error %.3f (1e-3) vs %.3f (1e-4), "
            "p=%.2e, %.0f%% near integer plateaus"
            % (errs[1e-3].mean(), errs[1e-4].mean(), stat.pvalue,
               100 * near_integer.mean()))


# -- 12. priming experiment ----------------------------------------------------

def test_criterion_12_priming():
    lam_a = np.array([10.0, 5.0])
    lam_b = np.array([5.0, 10.0])
    w0 = np.ones(2)
    alpha, epsilon, n_traj, settle = 1e-3, 0.2, 200, 120_000
    delta = 0.99 * theory.priming_delta_max(lam_a, lam_b)
    p_a = lam_a * w0 / float(np.dot(lam_a, w0))
    params = theory.GapParams(p0=p_a, epsilon=epsilon)
    k_star = theory.iterations_for(params, alpha, delta)
    floor = 1.0 - 2.0 * epsilon - 0.05
    fractions = {}
    for label, k_switch in (("unprimed", 0), ("primed", k_star)):
        _, frac = theory.priming_experiment(lam_a, lam_b, w0, alpha, k_switch,
                                            k_switch + settle, n_traj, seed=1212)
        fractions[label] = frac
    assert fractions["unprimed"][-1] >= floor  # without priming: second axis
    assert fractions["primed"][0] >= floor     # with priming: first axis
    _report("criterion 12 PASS: unprimed->last %.2f, primed->first %.2f "
            "(floor %.2f, k*=%d)"
            % (fractions["unprimed"][-1], fractions["primed"][0], floor, k_star))


# -- 13. determinism of every scenario ----------------------------------------

SMALL_OVERRIDES = {
    "fig2-trajectories": {"n_steps": 200, "grid_step": 0.1},
    "fig2-ensemble": {"n_steps": 300, "n_traj": 6},
    "fig3-algorithm1": {"n_steps": 500},
    "correlated-figure": {"n_steps": 300, "n_traj": 6, "grid_step": 0.1},
    "priming": {"settle_steps": 2000, "n_traj": 6},
    "thm22-verify": {"n_traj": 8, "n_steps": 2000,
                     "checkpoints": [0, 1000, 2000]},
    "thm23-verify": {"n_cases": 6, "horizon": 2.0},
    "thm-corr-verify": {"n_traj": 4, "n_steps": 2000,
                        "checkpoints": [0, 2000]},
    "alg2-verify": {"alpha": 0.05, "n_seeds": 10},
    "spiking-validate": {"n_events": [2000, 1000], "noise_samples": 10000,
                         "tolerance": 0.05},
    "mirror-compare": {"n_points": 10},
    "landscape-grid": {"grid_step": 0.05},
}

THREADED = {"fig2-ensemble", "priming", "thm22-verify", "alg2-verify"}

# the scenarios whose report.json names its checks
VERIFIERS = {"priming", "thm22-verify", "thm23-verify", "thm-corr-verify", "alg2-verify",
             "spiking-validate", "mirror-compare", "landscape-grid"}


def _verdict(out_dir, scenario):
    """The report.json of a run, {} when it wrote none, after asserting the
    one verdict rule of `cli.main` on it: passed when the report names a
    check and every check holds."""
    path = os.path.join(str(out_dir), scenario, "report.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        report = json.load(fh)
    if "checks" in report:
        checks = report["checks"]
        assert report["passed"] == (bool(checks) and all(checks.values())), scenario
    return report


def _run_scenario(scenario, out_dir, threads):
    args = [scenario, "--out", str(out_dir), "--seed", "3", "--threads",
            str(threads)]
    for key, value in SMALL_OVERRIDES[scenario].items():
        args += ["--set", "%s=%s" % (key, json.dumps(value))]
    rc = cli.main(args)
    expected = 4 if _verdict(out_dir, scenario).get("passed") is False else 0
    assert rc == expected, "scenario %s exited %d, not %d" % (scenario, rc, expected)
    digests = {}
    root = os.path.join(str(out_dir), scenario)
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if name == "manifest.json":
            with open(path) as fh:
                manifest = json.load(fh)
            # drop the fields that echo the invocation rather than results
            manifest.pop("elapsed_seconds", None)
            manifest.pop("threads", None)
            digests[name] = json.dumps(manifest, sort_keys=True)
        else:
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_criterion_13_determinism(tmp_path):
    scenarios = sorted(SMALL_OVERRIDES)
    assert set(scenarios) == set(cli.SCENARIOS)
    for scenario in scenarios:
        runs = [_run_scenario(scenario, tmp_path / (scenario + "-a"), 1),
                _run_scenario(scenario, tmp_path / (scenario + "-b"), 1)]
        if scenario in THREADED:
            runs.append(_run_scenario(scenario, tmp_path / (scenario + "-c"), 3))
        for other in runs[1:]:
            assert other == runs[0], "%s not deterministic" % scenario
    assert {s for s in scenarios if "checks" in _verdict(tmp_path / (s + "-a"), s)} == VERIFIERS
    _report("criterion 13 PASS: all %d scenarios byte-identical across "
            "reruns and thread counts" % len(scenarios))


class _ReadKeys(dict):
    """A scenario config that adds each key a scenario reads to `read`."""

    def __init__(self, cfg, read):
        super().__init__(cfg)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_every_config_key_is_read(tmp_path):
    """Every scenario reads every key of its config: a key that nothing
    reads is an option that does nothing but change the manifest."""
    build = cli.build_config
    unread = {}
    for scenario in sorted(SMALL_OVERRIDES):
        read = set()
        with mock.patch.object(cli, "build_config", lambda *a: _ReadKeys(build(*a), read)):
            _run_scenario(scenario, tmp_path / scenario, 1)
        missing = sorted(set(cli.DEFAULTS[scenario]) - read)
        if missing:
            unread[scenario] = missing
    assert unread == {}


def test_outputs_do_not_depend_on_the_segment_length(tmp_path):
    """Every row reads its stream in step order, so cutting the runs into
    segments of at most 7 steps, not `dynamics.CHUNK`, changes no output
    file of any scenario."""
    for scenario in sorted(SMALL_OVERRIDES):
        default = _run_scenario(scenario, tmp_path / (scenario + "-default"), 1)
        with mock.patch.object(dynamics, "CHUNK", 7):
            short = _run_scenario(scenario, tmp_path / (scenario + "-short"), 1)
        assert short == default, "%s depends on the segment length" % scenario
