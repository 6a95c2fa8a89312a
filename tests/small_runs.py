"""Criterion 13's sizes: one small run of every scenario, the size at which
the determinism criterion, the gate witnesses, the compiled-vs-numpy check
and CI run the scenarios. This module imports neither scipy nor the package,
so a run without scipy can read it."""

import json

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


def small_args(scenario, seed=3):
    """The command line of the scenario at criterion 13's size and the seed,
    without --out; a --set appended to it overrides the table's value."""
    args = [scenario, "--seed", str(seed)]
    for key, value in SMALL_OVERRIDES[scenario].items():
        args += ["--set", "%s=%s" % (key, json.dumps(value))]
    return args
