"""Scenario-driven command line front end.

Usage: simplex-stdp <scenario> [--config FILE] [--seed N] [--out DIR]
                    [--threads N] [--set key=value]...

Each scenario writes a manifest.json (config digest, seed, file list) and its
CSV outputs. The eight verification scenarios (priming, thm22-verify,
thm23-verify, thm-corr-verify, alg2-verify, spiking-validate, mirror-compare
and landscape-grid) also write a report.json whose `checks` maps each check
to true or false. Only main() turns them into the verdict: `passed` is true
when every check holds, false when one fails, and null when the scenario
names no check (landscape-grid with gamma set); the run exits 4 exactly when
`passed` is false. Outputs are byte-identical across reruns. --threads is
accepted and recorded in the manifest but has no effect: every ensemble runs
as one batch in one thread. ROADMAP item 10 decides whether it runs row
blocks in parallel or goes; on a 2-core VM, two threads over thm22-verify's
rows measured the benchmark's gap-verify wall time -1.7% and CPU time +12.3%
(6 alternating pairs), so it runs none. The package pins numpy's OpenBLAS
to one thread as well (OPENBLAS_NUM_THREADS=1 unless already set), which
works only when simplex_stdp is imported before numpy, as this command does;
an idle OpenBLAS worker busy-waits for about 0.1 s of CPU per process
otherwise. Ensemble member i uses the stream keyed by (seed, i), so single
members of fig2-ensemble and correlated-figure can be reproduced in
isolation with dynamics.run_trajectory(config, (seed, i)).

Exit codes: 0 success, 2 configuration error (unknown scenario / override,
a non-integral value for an integer key, --threads below 1), 3 precondition
violation (invalid parameter values, unwritable output), 4 verification
failure (`passed` false).
"""

import argparse
import copy
import gc
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .simplex import (InvalidInputError, as_float_array, barycentric_embedding, landscape_grid,
                      probabilities_from_weights, validate_weights)
from .dynamics import (DynamicsConfig, final_probabilities, run_trajectory, stream_for,
                       validate_correlation)
from . import theory
from . import multi as multi_mod
from . import mirror as mirror_mod
from . import spiking as spiking_mod
from .flow import FlowSpec, flow_bound, flow_gap, integrate

# The ~10^5 objects that importing numpy and the package made live until
# exit: frozen, they are skipped by the run's collections and by the
# interpreter's at exit. At import, not in main(), which may run many times
# in one process.
gc.freeze()

# rows formatted at a time, so that a long table is never held as text
CSV_BLOCK = 65536


def _cells(a):
    """A column array as strings: bools as 1/0, other integers as str and
    floats as repr, the shortest text that reads back as the same float."""
    values = a.tolist()
    if a.dtype == bool:
        return ["1" if v else "0" for v in values]
    return list(map(repr if a.dtype.kind == "f" else str, values))


def write_csv(path, header, columns):
    """Write equal-length columns, one per header name, as CSV rows."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns of unequal lengths %s" % [len(c) for c in columns])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK):
            cells = [_cells(c[start:start + CSV_BLOCK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


DEFAULTS = {
    "fig2-trajectories": {
        "alpha": 0.01,
        "n_steps": 2000,
        "record_stride": 1,
        "p0_list": [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.35, 0.4]],
        "grid_step": 0.01,
    },
    "fig2-ensemble": {
        "alpha": 0.01,
        "n_steps": 2000,
        "p0": [0.3, 0.3, 0.4],
        "n_traj": 100,
        "record_stride": 20,
        "n_full_trajectories": 3,
    },
    "fig3-algorithm1": {
        "lam": [10.0, 7.5, 5.0],
        "base_alpha": 1e-3,
        "rate_scale": [1.0, 0.75, 0.5],
        "n_steps": 40000,
        "record_stride": 100,
    },
    "correlated-figure": {
        "alpha": 0.01,
        "n_steps": 2000,
        "n_traj": 50,
        "p0": [0.3, 0.3, 0.4],
        "gamma": [[1.0, 0.1, 0.1], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]],
        "grid_step": 0.01,
    },
    "priming": {
        "lam_first": [10.0, 5.0],
        "lam_second": [5.0, 10.0],
        "w0": [1.0, 1.0],
        "alpha": 1e-3,
        "epsilon": 0.2,
        "n_traj": 200,
        "settle_steps": 120000,
        "slack": 0.05,
    },
    "thm22-verify": {
        "p0": [0.9, 0.1],
        "epsilon": 0.5,
        "n_traj": 200,
        "n_steps": 200000,
        "checkpoints": [0, 50000, 100000, 150000, 200000],
        "probability_slack": 0.05,
        "bound_slack": 1.1,
    },
    "thm23-verify": {
        "n_cases": 100,
        "dims": [2, 3, 5],
        "min_gap": 0.05,
        "horizon": 10.0,
        "dt": 0.01,
        "record_stride": 10,
    },
    "thm-corr-verify": {
        "p0": [0.8, 0.1, 0.1],
        "gamma": [[1.0, 0.1, 0.1], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]],
        "epsilon": 0.5,
        "n_traj": 50,
        "n_steps": 2500000,
        "checkpoints": [0, 500000, 1000000, 1500000, 2000000, 2500000],
        "probability_slack": 0.07,
        "bound_slack": 1.1,
    },
    "alg2-verify": {
        "lam": [10.0, 7.5, 5.0],
        "w0": [1.0, 1.0, 1.0],
        "alpha": 1e-3,
        "epsilon": 0.2,
        "delta": 0.25,
        "n_seeds": 200,
        "slack": 0.05,
    },
    "spiking-validate": {
        "lam": [10.0, 7.5, 5.0],
        "weights": [1.0, 1.0, 1.0],
        "thresholds": [5.0, 30.0],
        "n_events": [100000, 30000],
        "tolerance": 0.01,
        "noise_samples": 1000000,
    },
    "mirror-compare": {
        "alphas": [1e-2, 1e-3, 1e-4],
        "n_points": 100,
        "d": 3,
        "ratio_low": 80.0,
        "ratio_high": 120.0,
    },
    "landscape-grid": {
        "grid_step": 0.005,
        "gamma": None,
    },
}


def _vectors(cfg, *names):
    """cfg[name] for each of names as float arrays, vectors of one length."""
    vectors = [as_float_array(cfg[name], name) for name in names]
    if any(v.ndim != 1 or v.size != vectors[0].size for v in vectors):
        raise InvalidInputError("%s must be vectors of one length, got shapes %s"
                                % (", ".join(names), [v.shape for v in vectors]))
    return vectors


def _trajectory_columns(record, with_embedding=False):
    columns = [record.recorded_steps] + list(record.states.T)
    if with_embedding:
        columns += barycentric_embedding(record.states)
    return columns


def _final_columns(finals):
    """The trajectory, p_1..p_d and winner columns of final_states.csv."""
    return [np.arange(len(finals))] + list(finals.T) + [finals.argmax(axis=1)]


def _write_landscape(path, grid_step, gamma=None):
    """Write the landscape values on the lattice and return them: the
    cubic-quartic loss, or -1/2 p^T gamma p when gamma is given."""
    pts, x, y, vals = landscape_grid(grid_step)
    if gamma is not None:
        vals = -0.5 * np.einsum("ni,ij,nj->n", pts, validate_correlation(gamma, 3), pts)
    write_csv(path, ["x", "y", "value"], [x, y, vals])
    return vals


def scenario_fig2_trajectories(cfg, out, seed):
    if not cfg["p0_list"]:
        raise InvalidInputError("p0_list must hold at least one start")
    files = []
    d = len(cfg["p0_list"][0])
    header = ["k"] + ["p_%d" % (i + 1) for i in range(d)] + ["x", "y"]
    for i, p0 in enumerate(cfg["p0_list"]):
        config = DynamicsConfig(
            alpha=cfg["alpha"], n_steps=cfg["n_steps"], p0=p0,
            record_stride=cfg["record_stride"],
        )
        rec = run_trajectory(config, (seed, i))
        path = os.path.join(out, "trajectory_%d.csv" % i)
        write_csv(path, header, _trajectory_columns(rec, with_embedding=True))
        files.append(path)
    path = os.path.join(out, "landscape.csv")
    _write_landscape(path, cfg["grid_step"])
    files.append(path)
    return files, None


def scenario_fig2_ensemble(cfg, out, seed):
    files = []
    d = len(cfg["p0"])
    n = cfg["n_traj"]
    header = ["k"] + ["p_%d" % (i + 1) for i in range(d)]
    config = DynamicsConfig(
        alpha=cfg["alpha"], n_steps=cfg["n_steps"], p0=cfg["p0"],
        record_stride=cfg["record_stride"],
    )
    finals = final_probabilities(config, [(seed, i) for i in range(n)])
    for i in range(min(cfg["n_full_trajectories"], n)):
        rec = run_trajectory(config, (seed, i))
        path = os.path.join(out, "trajectory_%d.csv" % i)
        write_csv(path, header, _trajectory_columns(rec))
        files.append(path)
    path = os.path.join(out, "final_states.csv")
    write_csv(path, ["trajectory"] + header[1:] + ["winner"], _final_columns(finals))
    files.append(path)
    return files, None


def scenario_fig3_algorithm1(cfg, out, seed):
    lam = as_float_array(cfg["lam"], "lam")
    d = lam.size
    config = multi_mod.MultiRunConfig(
        lam=lam,
        w0=np.ones((d, d)),
        alphas=cfg["base_alpha"] * as_float_array(cfg["rate_scale"], "rate_scale"),
        n_steps=cfg["n_steps"],
        record_stride=cfg["record_stride"],
    )
    rec = multi_mod.joint_run(config, seed)
    path = os.path.join(out, "frobenius_error.csv")
    write_csv(path, ["k", "half_squared_error"],
              [rec.recorded_steps, multi_mod.frobenius_half_error(rec.probabilities)])
    return [path], {"clip_events": rec.clip_events}


def scenario_correlated_figure(cfg, out, seed):
    # the landscape needs a 3 x 3 gamma; check it before the ensemble runs
    if cfg["gamma"] is None:
        raise InvalidInputError("correlated-figure needs a correlation matrix gamma")
    validate_correlation(cfg["gamma"], 3)
    files = []
    d = len(cfg["p0"])
    n = cfg["n_traj"]
    header = ["k"] + ["p_%d" % (i + 1) for i in range(d)]
    config = DynamicsConfig(
        alpha=cfg["alpha"], n_steps=cfg["n_steps"], p0=cfg["p0"], gamma=cfg["gamma"],
    )
    finals = final_probabilities(config, [(seed, i) for i in range(n)])
    path = os.path.join(out, "final_states.csv")
    write_csv(path, ["trajectory"] + header[1:] + ["winner"], _final_columns(finals))
    files.append(path)
    path = os.path.join(out, "landscape_shahshahani.csv")
    _write_landscape(path, cfg["grid_step"], gamma=cfg["gamma"])
    files.append(path)
    return files, None


def scenario_priming(cfg, out, seed):
    lam_a, lam_b, w0 = _vectors(cfg, "lam_first", "lam_second", "w0")
    d = w0.size
    eps = cfg["epsilon"]
    p_a = probabilities_from_weights(lam_a, w0)
    params = theory.GapParams(p0=p_a, epsilon=eps)
    delta = 0.99 * theory.priming_delta_max(lam_a, lam_b)
    k_star = theory.iterations_for(params, cfg["alpha"], delta)
    results = {}
    labels = ("unprimed", "primed")
    for label, k_switch in zip(labels, (0, k_star)):
        _, results[label] = theory.priming_experiment(
            lam_a, lam_b, w0, cfg["alpha"], k_switch, k_switch + cfg["settle_steps"],
            cfg["n_traj"], seed,
        )
    floor = 1.0 - 2.0 * eps - cfg["slack"]
    report = {
        "delta": delta,
        "k_star": int(k_star),
        "required_frequency": floor,
        "unprimed_fractions": list(results["unprimed"]),
        "primed_fractions": list(results["primed"]),
        "checks": {
            "unprimed_to_last": results["unprimed"][d - 1] >= floor,
            "primed_to_first": results["primed"][0] >= floor,
        },
    }
    path = os.path.join(out, "priming.csv")
    write_csv(path, ["phase"] + ["fraction_%d" % (i + 1) for i in range(d)],
              [labels] + list(zip(*(results[label] for label in labels))))
    return [path], report


def _gap_verify(cfg, out, seed):
    if not cfg["checkpoints"]:
        raise InvalidInputError("checkpoints must name at least one step")
    params = theory.GapParams(p0=cfg["p0"], gamma=cfg.get("gamma"), epsilon=cfg["epsilon"])
    alpha = theory.max_alpha(params)
    _, tracker = theory.run_gap_ensemble(
        params.p0, alpha, cfg["n_steps"], cfg["n_traj"], seed, gamma=params.gamma,
        checkpoints=cfg["checkpoints"],
    )
    report = theory.verification_report(params, alpha, tracker)
    prob_floor = 1.0 - cfg["epsilon"] / 2.0 - cfg["probability_slack"]
    checks = {
        "gap_event_probability": report["empirical_gap_event_probability"] >= prob_floor,
        "bound_domination": all(
            row["on_event_mean_l1_error"] <= cfg["bound_slack"] * row["bound"]
            for row in report["checkpoints"]
        ),
        "inclusion": tracker.ek_violations == 0,
    }
    report["probability_floor"] = prob_floor
    report["checks"] = checks
    path = os.path.join(out, "checkpoints.csv")
    write_csv(
        path,
        ["k", "bound", "on_event_mean_l1_error"],
        [[r[key] for r in report["checkpoints"]]
         for key in ("k", "bound", "on_event_mean_l1_error")],
    )
    return [path], report


def scenario_thm_corr_verify(cfg, out, seed):
    if cfg["gamma"] is None:
        raise InvalidInputError("thm-corr-verify needs a correlation matrix gamma")
    return _gap_verify(cfg, out, seed)


# starts drawn per thm23-verify case before its min_gap counts as unreachable
MAX_START_DRAWS = 100000


def scenario_thm23_verify(cfg, out, seed):
    rng = stream_for(seed)
    dims = list(cfg["dims"])
    if cfg["n_cases"] < 1 or not dims or min(dims) < 2:
        raise InvalidInputError("need n_cases >= 1 and at least one dimension, each >= 2")
    if not 0.0 <= cfg["min_gap"] < 1.0:
        raise InvalidInputError("min_gap=%s outside [0, 1)" % cfg["min_gap"])
    violations = 0
    worst_margin = np.inf
    max_correction = 0.0
    rows = []
    for case in range(cfg["n_cases"]):
        d = dims[case % len(dims)]
        # rejection sampling of a uniform start with gap >= min_gap
        for _ in range(MAX_START_DRAWS):
            p0 = rng.dirichlet(np.ones(d))
            gap, star = flow_gap(p0)
            if gap >= cfg["min_gap"]:
                break
        else:
            raise InvalidInputError("no start with gap >= min_gap=%g in %d draws for d=%d"
                                    % (cfg["min_gap"], MAX_START_DRAWS, d))
        spec = FlowSpec(
            p0=p0, horizon=cfg["horizon"], dt=cfg["dt"], record_stride=cfg["record_stride"]
        )
        traj = integrate(spec)
        target = np.zeros(d)
        target[star] = 1.0
        err = np.abs(traj.states - target).sum(axis=1)
        bound = flow_bound(p0, traj.times)
        # the bound is an equality at t = 0, so the gate allows rounding
        # noise of 1e-12 at every t; the margin is read past t = 0, where
        # the bound has room, and not against the allowance
        slack = bound + 1e-12 - err
        violations += int(np.sum(slack < 0))
        past_start = traj.times > 0
        if not past_start.any():
            raise InvalidInputError("horizon=%r records no step past t = 0 at dt=%r"
                                    % (cfg["horizon"], cfg["dt"]))
        margin = float((bound - err)[past_start].min())
        worst_margin = min(worst_margin, margin)
        max_correction = max(max_correction, float(traj.renorm_corrections.max()))
        rows.append([case, d, gap, margin])
    path = os.path.join(out, "cases.csv")
    write_csv(path, ["case", "d", "gap", "min_bound_margin"], zip(*rows))
    report = {
        "n_cases": cfg["n_cases"],
        "violations": int(violations),
        "worst_margin": worst_margin,
        "max_renorm_correction": max_correction,
        "checks": {"flow_bound": violations == 0},
    }
    return [path], report


def scenario_alg2_verify(cfg, out, seed):
    lam, w0 = _vectors(cfg, "lam", "w0")
    w0 = validate_weights(w0)
    d = lam.size
    if d < 2:
        raise InvalidInputError("alg2-verify needs at least two inputs, got %d" % d)
    delta_cap = multi_mod.admissible_delta(lam)
    if not cfg["delta"] < delta_cap:
        raise InvalidInputError(
            "delta=%g not below the admissible cap %g" % (cfg["delta"], delta_cap)
        )
    # minimal leading gap across the sequence of deflated subproblems,
    # assuming earlier columns landed on their axes
    gaps = []
    w = w0.copy()
    for j in range(d):
        num = lam * w
        if not np.any(num > 0):
            raise InvalidInputError("deflated subproblem %d of w0=%s has no weight left"
                                    % (j, cfg["w0"]))
        gap, star = flow_gap(num / num.sum())
        gaps.append(gap)
        w[star] = 0.0
        if j == d - 2:
            break
    gap = min(gaps)
    k_per_column = multi_mod.required_iterations(
        d, cfg["alpha"], gap, cfg["epsilon"], cfg["delta"]
    )
    success = multi_mod.sequential_success_ensemble(
        lam, w0, cfg["alpha"], k_per_column, cfg["n_seeds"], seed
    )
    rate = float(success.mean())
    floor = (1.0 - cfg["epsilon"]) ** d - cfg["slack"]
    report = {
        "k_per_column": int(k_per_column),
        "minimal_gap": gap,
        "success_rate": rate,
        "required_rate": floor,
        "checks": {"success_rate": rate >= floor},
    }
    path = os.path.join(out, "successes.csv")
    write_csv(path, ["seed_index", "success"], [np.arange(success.size), success])
    return [path], report


def scenario_spiking_validate(cfg, out, seed):
    lam, w = _vectors(cfg, "lam", "weights")
    target = probabilities_from_weights(lam, w)
    if not cfg["thresholds"] or len(cfg["thresholds"]) != len(cfg["n_events"]):
        raise InvalidInputError("need one n_events per threshold, at least one of each")
    rows = []
    rng = stream_for(seed)
    for thresh, n_events in zip(cfg["thresholds"], cfg["n_events"]):
        ids = spiking_mod.collect_triggers(lam, w, thresh, n_events, rng)
        freqs = np.bincount(ids, minlength=lam.size) / ids.size
        dev = float(np.abs(freqs - target).max())
        rows.append([thresh, ids.size, dev] + list(freqs))
    mean, lo, hi = spiking_mod.centered_noise_stats(0.0, 1.0, cfg["noise_samples"], rng)
    path = os.path.join(out, "trigger_frequencies.csv")
    write_csv(
        path,
        ["threshold", "n_events", "max_deviation"]
        + ["freq_%d" % (i + 1) for i in range(lam.size)],
        zip(*rows),
    )
    report = {
        "target": list(target),
        "noise_mean": mean,
        "noise_min": lo,
        "noise_max": hi,
        "checks": {
            "trigger_frequencies": all(dev <= cfg["tolerance"] for _, _, dev, *_ in rows),
            "noise_centered": abs(mean) < 0.002 and lo >= -1.0 and hi <= 1.0,
        },
    }
    return [path], report


def scenario_mirror_compare(cfg, out, seed):
    rng = stream_for(seed)
    alphas = as_float_array(cfg["alphas"], "alphas")
    if cfg["n_points"] < 1 or alphas.size < 2 or cfg["d"] < 2:
        raise InvalidInputError("need n_points >= 1, d >= 2 and two rates to compare")
    sup = np.zeros(alphas.size)
    for _ in range(cfg["n_points"]):
        p = rng.dirichlet(np.ones(cfg["d"]))
        sup = np.maximum(sup, mirror_mod.order_comparison(p, alphas))
    ratios = sup[:-1] / sup[1:]
    path = os.path.join(out, "mirror.csv")
    write_csv(path, ["alpha", "sup_difference"], [alphas, sup])
    in_band = (ratios >= cfg["ratio_low"]) & (ratios <= cfg["ratio_high"])
    return [path], {"ratios": list(ratios), "checks": {"ratio_band": in_band.all()}}


def scenario_landscape_grid(cfg, out, seed):
    path = os.path.join(out, "landscape.csv")
    vals = _write_landscape(path, cfg["grid_step"], gamma=cfg["gamma"])
    # the correlated landscape has no check yet
    checks = {}
    if cfg["gamma"] is None:
        checks["lattice_minimum"] = abs(float(vals.min()) - (-1.0 / 12.0)) <= 1e-5
    return [path], {"min_value": float(vals.min()), "checks": checks}


SCENARIOS = {
    "fig2-trajectories": scenario_fig2_trajectories,
    "fig2-ensemble": scenario_fig2_ensemble,
    "fig3-algorithm1": scenario_fig3_algorithm1,
    "correlated-figure": scenario_correlated_figure,
    "priming": scenario_priming,
    "thm22-verify": _gap_verify,
    "thm23-verify": scenario_thm23_verify,
    "thm-corr-verify": scenario_thm_corr_verify,
    "alg2-verify": scenario_alg2_verify,
    "spiking-validate": scenario_spiking_validate,
    "mirror-compare": scenario_mirror_compare,
    "landscape-grid": scenario_landscape_grid,
}


def _parse_set(item):
    if "=" not in item:
        raise ValueError("--set expects key=value, got %r" % item)
    key, _, raw = item.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _integral(key, value):
    """value as an int when it is an integral number such as 1000, 1e3 or
    200.0; anything else, a bool included, raises ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError("%s must be an integer, got %r" % (key, value))


def _typed(key, value, default):
    """value for a key with this default: an int default, or a list of ints,
    takes integers only (`_integral`); other values pass unchanged."""
    if type(default) is int:
        return _integral(key, value)
    if isinstance(default, list) and default and all(type(v) is int for v in default):
        if not isinstance(value, list):
            raise ValueError("%s must be a list of integers, got %r" % (key, value))
        return [_integral(key, v) for v in value]
    return value


def build_config(scenario, config_path, overrides):
    cfg = copy.deepcopy(DEFAULTS[scenario])
    items = {}
    if config_path:
        with open(config_path) as fh:
            items = json.load(fh)
        if not isinstance(items, dict):
            raise ValueError("config file %s must hold a JSON object" % config_path)
    for key, value in list(items.items()) + list(overrides):
        if key not in cfg:
            raise KeyError("unknown config key %r for %s" % (key, scenario))
        cfg[key] = _typed(key, value, DEFAULTS[scenario][key])
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(prog="simplex-stdp", description=__doc__)
    parser.add_argument("scenario", help="one of: " + ", ".join(sorted(SCENARIOS)))
    parser.add_argument("--config", help="JSON file with parameter overrides")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="accepted and recorded in the manifest; has no effect")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    if args.scenario not in SCENARIOS:
        print("unknown scenario %r" % args.scenario, file=sys.stderr)
        return 2
    if args.threads < 1:
        print("configuration error: --threads=%d, must be at least 1" % args.threads,
              file=sys.stderr)
        return 2
    try:
        overrides = [_parse_set(item) for item in args.set]
        cfg = build_config(args.scenario, args.config, overrides)
    except (ValueError, KeyError, OSError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    out = args.out or os.environ.get("SIMPLEX_STDP_OUT") or "."
    out = os.path.join(out, args.scenario)
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        print("output directory not writable: %s" % exc, file=sys.stderr)
        return 3
    started = time.time()
    try:
        files, report = SCENARIOS[args.scenario](cfg, out, args.seed)
    except InvalidInputError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    # the one verdict rule: a verification scenario passes when all of its
    # named checks hold, and has no verdict when it names none
    verifies = report is not None and "checks" in report
    if verifies:
        checks = {name: bool(ok) for name, ok in report["checks"].items()}
        report.update(checks=checks, passed=all(checks.values()) if checks else None)
    if report is not None:
        report_path = os.path.join(out, "report.json")
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        files = files + [report_path]
    digest = hashlib.sha256(
        json.dumps({"scenario": args.scenario, "cfg": cfg, "seed": args.seed},
                   sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "scenario": args.scenario,
        "seed": args.seed,
        "threads": args.threads,
        "config": cfg,
        "config_digest": digest,
        "version": __version__,
        "files": [os.path.basename(f) for f in files],
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # the run time varies between runs, so it is printed, not written to out
    summary = "%s: wrote %d file(s) to %s in %.3f s" % (
        args.scenario, len(files) + 1, out, time.time() - started)
    if verifies:
        summary += "; passed=%s" % report["passed"]
    print(summary)
    return 4 if verifies and report["passed"] is False else 0


if __name__ == "__main__":
    sys.exit(main())
