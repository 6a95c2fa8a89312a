"""Tests for the event-driven spiking model."""

import numpy as np
import pytest

from simplex_stdp import spiking
from simplex_stdp.simplex import InvalidInputError


def test_poisson_trains_rates():
    rng = np.random.default_rng(0)
    lam = np.array([10.0, 2.0])
    trains = spiking.gen_poisson_trains(lam, 2000.0, rng)
    for rate, ts in zip(lam, trains.times):
        assert np.all(np.diff(ts) > 0)
        assert ts.max() <= 2000.0
        assert abs(ts.size / 2000.0 - rate) < 0.2 * rate


def test_poisson_trains_equal_a_running_sum():
    def running_sum(lam, horizon, rng):
        trains = []
        for rate in lam:
            ts, t = [], 0.0
            while t <= horizon:
                for g in rng.exponential(1.0 / rate, size=max(16, int(rate * horizon * 0.1) + 16)):
                    t += g
                    if t > horizon:
                        break
                    ts.append(t)
            trains.append(np.array(ts))
        return trains

    for seed, lam, horizon in [(0, [10.0, 7.5, 5.0], 300.0), (1, [0.01, 50.0], 2.0),
                               (2, [3.0], 1e-3), (3, [200.0, 1.0], 40.0)]:
        got = spiking.gen_poisson_trains(np.array(lam), horizon, np.random.default_rng(seed))
        oracle = running_sum(lam, horizon, np.random.default_rng(seed))
        for a, b in zip(got.times, oracle):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_membrane_spikes_only_at_input_times_and_resets():
    rng = np.random.default_rng(1)
    lam = np.array([10.0, 7.5, 5.0])
    trains = spiking.gen_poisson_trains(lam, 200.0, rng)
    cfg = spiking.MembraneConfig(weights=np.ones(3), threshold=5.0, record_potential=True)
    rec = spiking.simulate_membrane(cfg, trains)
    all_times = np.sort(np.concatenate(trains.times))
    assert np.all(np.isin(rec.spike_times, all_times))
    # recorded potential (after any reset) stays below the threshold
    assert rec.potentials.max() < 5.0
    assert rec.spike_times.size > 0


def test_equal_weights_trigger_distribution():
    rng = np.random.default_rng(2)
    lam = np.array([10.0, 7.5, 5.0])
    ids = spiking.collect_triggers(lam, np.ones(3), 5.0, 20000, rng)
    freqs = np.bincount(ids, minlength=3) / ids.size
    assert np.abs(freqs - lam / lam.sum()).max() < 0.02


def test_pair_kernel_bounds_and_antisymmetry():
    rng = np.random.default_rng(3)
    a, b = 1.5, 4.0
    tau = rng.uniform(a, b, 1000)
    vals = spiking.pair_kernel(tau, a, b)
    assert np.all(np.abs(vals) <= 1.0)
    reflected = spiking.pair_kernel(a + b - tau, a, b)
    # reflection of tau rounds in float, so allow a few ulps of slack
    assert np.abs(vals + reflected).max() < 1e-14


def test_centered_noise_statistics():
    rng = np.random.default_rng(4)
    mean, lo, hi = spiking.centered_noise_stats(0.0, 2.0, 200000, rng)
    assert abs(mean) < 0.005
    assert lo >= -1.0 and hi <= 1.0


def test_stdp_update_window_validation_and_trigger_term():
    with pytest.raises(InvalidInputError):
        spiking.stdp_update(1.0, [0.5], 1.0, 2.0, 0.01)
    # a single spike exactly at the window end contributes 1 - exp(-duration)
    w, total = spiking.stdp_update(1.0, [2.0], 1.0, 2.0, 0.01)
    assert abs(total - (1.0 - np.exp(-1.0))) < 1e-15
    assert abs(w - (1.0 + 0.01 * total)) < 1e-15


def test_learning_run_probabilities_and_trigger_increment():
    rng = np.random.default_rng(5)
    lam = np.array([10.0, 7.5, 5.0])
    run = spiking.spiking_learning_run(lam, np.ones(3), 5.0, 0.01, 3000, rng)
    assert np.allclose(run.probabilities.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(run.probabilities >= 0)
    # the triggering neuron's window always contains its own trigger spike,
    # so its mean relative increment tracks alpha * E[1 - exp(-duration)]
    idx = run.trigger_ids
    own = run.relative_increments[np.arange(idx.size), idx] / 0.01
    predicted = np.mean(1.0 - np.exp(-run.window_durations))
    assert abs(own.mean() - predicted) < 0.1


def test_learning_run_drift_direction():
    # from equal weights the leading intensity gains mass and the smallest
    # loses it, matching the replicator drift signs (+, ?, -)
    rng = np.random.default_rng(6)
    lam = np.array([10.0, 7.5, 5.0])
    run = spiking.spiking_learning_run(lam, np.ones(3), 5.0, 0.01, 4000, rng)
    p0, pT = run.probabilities[0], run.probabilities[-1]
    assert pT[0] > p0[0]
    assert pT[2] < p0[2]


def test_learning_run_rejects_bad_rate():
    with pytest.raises(InvalidInputError):
        spiking.spiking_learning_run(np.ones(2), np.ones(2), 3.0, 0.7, 10,
                                     np.random.default_rng(0))
