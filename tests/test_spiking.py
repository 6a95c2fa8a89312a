"""Tests for the event-driven spiking model."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplex_stdp import _kernel, spiking
from simplex_stdp.simplex import InvalidInputError


def _python_loop():
    """Run simulate_membrane as on a machine without the compiled kernel."""
    return mock.patch.object(_kernel, "library", lambda: None)


def _require_compiled_membrane():
    if _kernel.library() is None:
        pytest.skip("compiled membrane not available")


PATHS = {"compiled": contextlib.nullcontext, "python": _python_loop}


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


@st.composite
def membrane_case(draw):
    """Trains of dyadic times (ties across and within neurons, empty trains)
    with weights that may be 0, and a threshold that may lie below every
    weight, so that every event fires."""
    d = draw(st.sampled_from([1, 2, 3, 5]))
    times = [np.sort(np.array(draw(st.lists(st.integers(0, 40), max_size=30)), dtype=float)) / 8
             for _ in range(d)]
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]),
                               min_size=d, max_size=d)))
    w[draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.25, 1.0, 3.0]))
    threshold = draw(st.one_of(st.floats(0.01, 6.0), st.just(w[w > 0].min() / 2)))
    return times, w, threshold


@settings(max_examples=150, deadline=None)
@given(membrane_case(), st.booleans())
@example(([np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.5, 1.0]), np.array([])],
          np.array([1.0, 2.0, 0.5]), 0.25), True)
@example(([np.array([0.125, 0.25]), np.array([0.125, 0.25])], np.array([0.0, 1.0]), 1.5), True)
@example(([np.array([0.25, 0.5]), np.array([0.5]), np.array([0.125])],
          np.array([1.0, 9.0, 2.0, 9.0, 0.5, 9.0])[::2], 1.75), False)  # strided weights
def test_compiled_membrane_matches_python_loop(case, record_potential):
    _require_compiled_membrane()
    times, w, threshold = case
    trains = spiking.SpikeTrains(times=times, horizon=5.0)
    config = spiking.MembraneConfig(weights=w, threshold=threshold,
                                    record_potential=record_potential)
    compiled = spiking.simulate_membrane(config, trains)
    with _python_loop():
        reference = spiking.simulate_membrane(config, trains)
    for field in ("spike_times", "trigger_ids", "potential_times", "potentials"):
        a, b = getattr(compiled, field), getattr(reference, field)
        if not record_potential and field.startswith("potential"):
            assert a is None and b is None
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b)
    if threshold < w.min():
        assert compiled.spike_times.size == sum(t.size for t in times)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("weights, train", [
    (np.ones(2), np.array([0.5])),  # fewer weights than trains
    (np.ones(4), np.array([0.5])),  # more weights than trains
    (np.ones(3), np.array([0.5, 0.25])),  # unsorted
    (np.ones(3), np.array([0.25, np.nan, 0.5])),
    (np.ones(3), np.array([0.25, np.inf])),
    (np.ones(3), np.array([-0.25, 0.5])),  # before the membrane starts at 0
], ids=["short-weights", "long-weights", "unsorted", "nan", "inf", "negative"])
def test_membrane_rejects_mismatched_or_bad_trains(path, weights, train):
    if path == "compiled":
        _require_compiled_membrane()
    trains = spiking.SpikeTrains(times=[np.array([0.1, 0.2]), train, np.array([0.3])],
                                 horizon=1.0)
    config = spiking.MembraneConfig(weights=weights, threshold=1.5)
    with PATHS[path](), pytest.raises(InvalidInputError):
        spiking.simulate_membrane(config, trains)


def test_membrane_checks_its_weights_and_threshold():
    # both paths check them before any event is walked
    trains = spiking.SpikeTrains(times=[np.array([0.25]), np.array([0.5])], horizon=1.0)
    config = spiking.MembraneConfig(weights=[1, 2], threshold=2.5)
    for path in PATHS.values():
        with path():
            assert spiking.simulate_membrane(config, trains).trigger_ids.tolist() == [1]
            assert config.weights == [1, 2]
            for bad in (0.0, np.nan, np.inf):
                with pytest.raises(InvalidInputError, match="threshold"):
                    spiking.simulate_membrane(spiking.MembraneConfig([1.0, 1.0], bad), trains)
            with pytest.raises(InvalidInputError, match="finite"):
                spiking.simulate_membrane(spiking.MembraneConfig([1.0, np.nan], 1.0), trains)


def test_full_spike_buffer_is_an_error():
    # every one of the three events fires; room for two spikes is refused
    _require_compiled_membrane()
    times, w = [np.array([0.25, 0.5, 0.75])], np.array([1.0])
    assert _kernel.membrane(times, w, 0.5, 3, False)[0].size == 3
    with pytest.raises(RuntimeError):
        _kernel.membrane(times, w, 0.5, 2, False)


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
    with pytest.raises(InvalidInputError):
        spiking.centered_noise_stats(0.0, 2.0, 0, rng)


@pytest.mark.parametrize("n", [1, spiking.NOISE_BLOCK - 1, spiking.NOISE_BLOCK,
                               spiking.NOISE_BLOCK + 1, 10**6])
def test_blocked_noise_stats_equal_one_draw(n):
    rng = np.random.default_rng(11)
    tau = rng.uniform(1.5, 4.0, n)
    vals = np.exp(tau - 4.0) - np.exp(1.5 - tau)
    expected = (float(vals.mean()), float(vals.min()), float(vals.max()), rng.random())
    blocked = np.random.default_rng(11)
    got = spiking.centered_noise_stats(1.5, 4.0, n, blocked) + (blocked.random(),)
    assert got == expected


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
