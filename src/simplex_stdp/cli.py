"""Scenario-driven command line front end.

Usage: simplex-stdp <scenario> [--seed N] [--out DIR] [--threads N]
                    [--set key=value]...

Each scenario writes its CSV outputs and a manifest.json (config, digest,
seed, file list) to DIR/<scenario>, by default in the current directory;
--set overrides one key of the scenario's DEFAULTS. The eight verification
scenarios (priming, thm22-verify, thm23-verify, thm-corr-verify,
alg2-verify, spiking-validate, mirror-compare and landscape-grid) also write
a report.json whose `checks` maps each check to true or false, next to the
floors the checks compare against. The floors and their allowances are
constants here, not config keys, so no run moves them. main() alone gives
the verdict: `passed` is true when the report names a check and every
check holds, and the run exits 4 exactly when it is false. Outputs are
byte-identical across reruns. --threads is accepted and recorded in the
manifest but has no effect: every ensemble runs as one batch in one thread.
The package pins numpy's OpenBLAS to one thread as well
(OPENBLAS_NUM_THREADS=1 unless already set), which works only when
simplex_stdp is imported before numpy, as this command does.
Ensemble member i uses the stream keyed by (seed, i), so single members of
fig2-ensemble and correlated-figure can be reproduced in isolation with
dynamics.run_trajectory(config, (seed, i)).

Exit codes: 0 success, 2 configuration error (unknown scenario / override,
a non-integral value for an integer key, --threads below 1), 3 precondition
violation (invalid parameter values, unwritable output), 4 verification
failure (`passed` false).
"""

import argparse
import copy
import dataclasses
import gc
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, simplex
from .simplex import (InvalidInputError, as_float_array, barycentric_embedding, landscape_grid,
                      probabilities_from_weights, validate_weights)
from .dynamics import (DynamicsConfig, final_probabilities, run_trajectory, stream_for,
                       validate_correlation)
from . import theory
from . import multi as multi_mod
from . import mirror as mirror_mod
from . import spiking as spiking_mod
from .flow import FlowSpec, flow_bound, flow_gap, integrate, schedule

# The ~10^5 objects that importing numpy and the package made live until
# exit: frozen, they are skipped by the run's collections and by the
# interpreter's at exit. At import, not in main(), which may run many times
# in one process.
gc.freeze()

# rows formatted at a time, so that a long table is never held as text: at
# 512 rather than 4096 landscape-grid at its defaults peaks about 1.7 MiB lower
CSV_BLOCK = 512


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
    },
    "thm22-verify": {
        "p0": [0.9, 0.1],
        "epsilon": 0.5,
        "n_traj": 200,
        "n_steps": 200000,
        "checkpoints": [0, 50000, 100000, 150000, 200000],
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
    },
    "alg2-verify": {
        "lam": [10.0, 7.5, 5.0],
        "w0": [1.0, 1.0, 1.0],
        "alpha": 1e-3,
        "epsilon": 0.2,
        "delta": 0.25,
        "n_seeds": 200,
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
    """Write the landscape values on the lattice and return (points, values):
    the cubic-quartic loss, or -1/2 p^T gamma p when gamma is given."""
    pts, x, y, vals = landscape_grid(grid_step)
    if gamma is not None:
        vals = -0.5 * np.einsum("ni,ij,nj->n", pts, validate_correlation(gamma, 3), pts)
    write_csv(path, ["x", "y", "value"], [x, y, vals])
    return pts, vals


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


PRIMING_SLACK = 0.05  # the floor is 1 - 2 epsilon less this


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
    floor = 1.0 - 2.0 * eps - PRIMING_SLACK
    cap = theory.max_alpha(params)
    report = {
        "delta": delta,
        "k_star": int(k_star),
        "required_frequency": floor,
        "theorem_alpha_cap": cap,
        "within_theorem": cfg["alpha"] <= cap,
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


# how far the gap-event probability may fall below 1 - epsilon/2, further for
# thm-corr-verify's 50 members than for thm22-verify's 200, and the factor by
# which the on-event error may exceed the bound
THM22_PROBABILITY_SLACK, THM_CORR_PROBABILITY_SLACK, BOUND_SLACK = 0.05, 0.07, 1.1


def _gap_verify(cfg, out, seed, slack=THM22_PROBABILITY_SLACK):
    if not cfg["checkpoints"]:
        raise InvalidInputError("checkpoints must name at least one step")
    params = theory.GapParams(p0=cfg["p0"], gamma=cfg.get("gamma"), epsilon=cfg["epsilon"])
    alpha = theory.max_alpha(params)
    _, tracker = theory.run_gap_ensemble(
        params.p0, alpha, cfg["n_steps"], cfg["n_traj"], seed, gamma=params.gamma,
        checkpoints=cfg["checkpoints"],
    )
    report = theory.verification_report(params, alpha, tracker)
    prob_floor = 1.0 - cfg["epsilon"] / 2.0 - slack
    checks = {
        "gap_event_probability": report["empirical_gap_event_probability"] >= prob_floor,
        "bound_domination": all(
            row["on_event_mean_l1_error"] <= BOUND_SLACK * row["bound"]
            for row in report["checkpoints"]
        ),
        "inclusion": tracker.ek_violations == 0,
    }
    report["probability_floor"] = prob_floor
    report["bound_slack"] = BOUND_SLACK
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
    return _gap_verify(cfg, out, seed, THM_CORR_PROBABILITY_SLACK)


# starts drawn per thm23-verify case before its min_gap counts as unreachable
MAX_START_DRAWS = 100000


def scenario_thm23_verify(cfg, out, seed):
    rng = stream_for(seed)
    dims = list(cfg["dims"])
    if cfg["n_cases"] < 1 or not dims or min(dims) < 2:
        raise InvalidInputError("need n_cases >= 1 and at least one dimension, each >= 2")
    if not 0.0 <= cfg["min_gap"] < 1.0:
        raise InvalidInputError("min_gap=%s outside [0, 1)" % cfg["min_gap"])
    starts = []
    for case in range(cfg["n_cases"]):
        d = dims[case % len(dims)]
        # rejection sampling of a uniform start with gap >= min_gap
        for _ in range(MAX_START_DRAWS):
            p0 = rng.dirichlet(np.ones(d))
            if flow_gap(p0)[0] >= cfg["min_gap"]:
                break
        else:
            raise InvalidInputError("no start with gap >= min_gap=%g in %d draws for d=%d"
                                    % (cfg["min_gap"], MAX_START_DRAWS, d))
        starts.append(p0)
    spec = FlowSpec(p0=None, horizon=cfg["horizon"], dt=cfg["dt"],
                    record_stride=cfg["record_stride"])
    n_steps, rec = schedule(spec)
    if n_steps == 0:
        raise InvalidInputError("horizon=%r records no step past t = 0 at dt=%r"
                                % (cfg["horizon"], cfg["dt"]))
    # A zero coordinate is a fixed point of the replicator field, so a start
    # padded with zeros to the widest d flows on a face of that simplex as it
    # does alone. The starts are integrated together, each call recording
    # at most MAX_RECORDED_ROWS rows over its starts, the cap of one start.
    padded = np.zeros((len(starts), max(dims)))
    for row, p0 in zip(padded, starts):
        row[:p0.size] = p0
    per_call = max(1, simplex.MAX_RECORDED_ROWS // rec.size)
    violations = 0
    worst_margin = np.inf
    max_correction = 0.0
    rows = []
    for first in range(0, len(starts), per_call):
        traj = integrate(dataclasses.replace(spec, p0=padded[first:first + per_call]))
        past_start = traj.times > 0
        for i, p0 in enumerate(starts[first:first + per_call]):
            d = p0.size
            gap, star = flow_gap(p0)
            err = np.abs(traj.states[:, i, :d] - np.eye(d)[star]).sum(axis=1)
            bound = flow_bound(p0, traj.times)
            # the bound is an equality at t = 0, so the gate allows rounding
            # noise of 1e-12 at every t; the margin is read past t = 0, where
            # the bound has room, and not against the allowance
            violations += int(np.sum(bound + 1e-12 - err < 0))
            margin = float((bound - err)[past_start].min())
            worst_margin = min(worst_margin, margin)
            max_correction = max(max_correction, float(traj.renorm_corrections[:, i].max()))
            rows.append([first + i, d, gap, margin])
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


ALG2_SLACK = 0.05  # the success-rate floor is (1 - epsilon)^d less this


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
    # Theorem 2.2 on each deflated subproblem: the smallest leading gap sets
    # the iteration count, and the smallest cap the rate the theorem covers
    params = [theory.GapParams(p0=p, epsilon=cfg["epsilon"])
              for p in multi_mod.deflated_starts(lam, w0)]
    gap = min(q.gap for q in params)
    k_per_column = multi_mod.required_iterations(
        d, cfg["alpha"], gap, cfg["epsilon"], cfg["delta"]
    )
    success = multi_mod.sequential_success_ensemble(
        lam, w0, cfg["alpha"], k_per_column, cfg["n_seeds"], seed
    )
    rate = float(success.mean())
    floor = (1.0 - cfg["epsilon"]) ** d - ALG2_SLACK
    cap = min(map(theory.max_alpha, params))
    report = {
        "k_per_column": int(k_per_column),
        "minimal_gap": gap,
        "success_rate": rate,
        "required_rate": floor,
        "theorem_alpha_cap": cap,
        "within_theorem": cfg["alpha"] <= cap,
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
    bound = spiking_mod.noise_mean_bound(0.0, 1.0, cfg["noise_samples"])
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
        "noise_mean_bound": bound,
        "noise_min": lo,
        "noise_max": hi,
        "checks": {
            "trigger_frequencies": all(dev <= cfg["tolerance"] for _, _, dev, *_ in rows),
            "noise_centered": abs(mean) < bound and lo >= -1.0 and hi <= 1.0,
        },
    }
    return [path], report


RATIO_BAND = (80.0, 120.0)  # second-order agreement: a tenth the rate, a hundredth the difference


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
    in_band = (ratios >= RATIO_BAND[0]) & (ratios <= RATIO_BAND[1])
    return [path], {"ratios": list(ratios), "ratio_band": list(RATIO_BAND),
                    "checks": {"ratio_band": in_band.all()}}


def scenario_landscape_grid(cfg, out, seed):
    path = os.path.join(out, "landscape.csv")
    pts, vals = _write_landscape(path, cfg["grid_step"], gamma=cfg["gamma"])
    # the minimum, which every vertex attains: -1/12, or -1/2 since
    # p^T gamma p <= (sum p)^2 = 1 when gamma's entries lie in [0, 1]
    low = -1.0 / 12.0 if cfg["gamma"] is None else -0.5
    mask = pts.max(axis=1) == 1.0
    ok = mask.sum() == 3 and vals.min() >= low - 1e-12 and vals[mask].max() <= low + 1e-12
    return [path], {"min_value": float(vals.min()), "checks": {"lattice_minimum": ok}}


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


def build_config(scenario, items):
    """The scenario's DEFAULTS with each --set KEY=VALUE of items applied,
    VALUE read as JSON, or as a string when it is no JSON."""
    cfg = copy.deepcopy(DEFAULTS[scenario])
    for item in items:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ValueError("--set expects key=value, got %r" % item)
        if key not in cfg:
            raise KeyError("unknown config key %r for %s" % (key, scenario))
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg[key] = _typed(key, value, DEFAULTS[scenario][key])
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(prog="simplex-stdp", description=__doc__)
    parser.add_argument("scenario", help="one of: " + ", ".join(sorted(SCENARIOS)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")
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
        cfg = build_config(args.scenario, args.set)
    except (ValueError, KeyError) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    out = os.path.join(args.out, args.scenario)
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
    # the one verdict rule: a verification scenario passes when it names a
    # check and all of its named checks hold
    verifies = report is not None and "checks" in report
    if verifies:
        checks = {name: bool(ok) for name, ok in report["checks"].items()}
        report.update(checks=checks, passed=bool(checks) and all(checks.values()))
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
    return 4 if verifies and not report["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
