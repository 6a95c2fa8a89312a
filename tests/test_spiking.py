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


def test_membrane_spikes_only_at_input_times_and_resets():
    rng = np.random.default_rng(1)
    lam = np.array([10.0, 7.5, 5.0])
    times, ids = spiking.poisson_events(lam, 0.0, 4500, rng)
    trains = spiking.SpikeTrains(times=[times[ids == j] for j in range(3)], horizon=times[-1])
    # each neuron fires at its own rate, about 200 time units of input
    assert np.all(np.abs([t.size / times[-1] - rate for t, rate in zip(trains.times, lam)])
                  < 0.1 * lam)
    cfg = spiking.MembraneConfig(weights=np.ones(3), threshold=5.0)
    rec = spiking.simulate_membrane(cfg, trains)
    all_times = np.sort(np.concatenate(trains.times))
    assert np.all(np.isin(rec.spike_times, all_times))
    # the potential restarts from zero after each spike and grows by at most
    # one weight per event, so each spike takes at least 5 events
    events = np.diff(np.searchsorted(all_times, rec.spike_times, side="right"), prepend=0)
    assert events.min() >= 5
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
@given(membrane_case())
@example(([np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.5, 1.0]), np.array([])],
          np.array([1.0, 2.0, 0.5]), 0.25))
@example(([np.array([0.125, 0.25]), np.array([0.125, 0.25])], np.array([0.0, 1.0]), 1.5))
@example(([np.array([0.25, 0.5]), np.array([0.5]), np.array([0.125])],
          np.array([1.0, 9.0, 2.0, 9.0, 0.5, 9.0])[::2], 1.75))  # strided weights
def test_compiled_membrane_matches_python_loop(case):
    _require_compiled_membrane()
    times, w, threshold = case
    trains = spiking.SpikeTrains(times=times, horizon=5.0)
    config = spiking.MembraneConfig(weights=w, threshold=threshold)
    compiled = spiking.simulate_membrane(config, trains)
    with _python_loop():
        reference = spiking.simulate_membrane(config, trains)
    for field in ("spike_times", "trigger_ids"):
        a, b = getattr(compiled, field), getattr(reference, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if threshold < w.min():
        assert compiled.spike_times.size == sum(t.size for t in times)


@st.composite
def stream_case(draw):
    """A merged stream of membrane_case's trains, perhaps with one time sent
    backwards or made NaN, the points where it is cut into blocks, and a
    spike cap that may lie below the spikes fired."""
    trains, w, threshold = draw(membrane_case())
    times, ids = spiking.merge_events(trains)
    if times.size and draw(st.sampled_from([False, False, True])):
        times[draw(st.integers(0, times.size - 1))] = draw(st.sampled_from([-0.125, np.nan]))
    cuts = sorted(draw(st.lists(st.integers(0, times.size), max_size=4)))
    cap = draw(st.one_of(st.just(times.size + 1), st.integers(0, times.size)))
    return times, ids, w, threshold, cuts, cap


def _blocks(walk, times, ids, w, threshold, cuts, cap):
    """The end state of walking the stream in the blocks between the cuts,
    the cap shared by the blocks, and its error or its spikes."""
    state, spikes, triggers = np.zeros(2), [np.empty(0)], [np.empty(0, dtype=np.int64)]
    try:
        for a, b in zip([0] + cuts, cuts + [times.size]):
            got = walk(times[a:b], ids[a:b], w, threshold, state, cap - sum(map(len, spikes)))
            spikes.append(got[0])
            triggers.append(got[1])
    except (InvalidInputError, RuntimeError) as exc:
        return state, type(exc)
    return state, np.concatenate(spikes), np.concatenate(triggers)


@settings(max_examples=150, deadline=None)
@given(stream_case())
@example((np.array([0.25, 0.5, 0.75]), np.zeros(3, dtype=np.int64), np.array([1.0]), 0.5,
          [1, 2], 2))  # over the cap in the last block
@example((np.array([0.25, 0.5, 0.375]), np.zeros(3, dtype=np.int64), np.array([1.0]), 1.5,
          [2], 3))  # backwards across a cut
def test_blocked_stream_equals_one_pass(case):
    # the state carried across any cuts gives one pass's spikes, end state
    # and error (time backwards, over the cap), on both paths
    times, ids, w, threshold, cuts, cap = case
    walks = [spiking._membrane_loop]
    if _kernel.library() is not None:
        walks.append(_kernel.membrane)
    results = [_blocks(walk, times, ids, w, threshold, c, cap)
               for walk in walks for c in ([], cuts)]
    for got in results[1:]:
        assert len(got) == len(results[0])
        for a, b in zip(got, results[0]):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
            else:
                assert a is b


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
    times, ids, w = np.array([0.25, 0.5, 0.75]), np.zeros(3, dtype=np.int64), np.array([1.0])
    assert _kernel.membrane(times, ids, w, 0.5, np.zeros(2), 3)[0].size == 3
    with pytest.raises(RuntimeError):
        _kernel.membrane(times, ids, w, 0.5, np.zeros(2), 2)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("bad", [-1, 2])
def test_membrane_rejects_neuron_ids_out_of_range(path, bad):
    # checked before either walk indexes w with them, the state untouched
    if path == "compiled":
        _require_compiled_membrane()
    state = np.array([0.5, 0.25])
    with PATHS[path](), pytest.raises(InvalidInputError, match="neuron ids"):
        spiking.membrane(np.array([0.5, 0.75]), np.array([0, bad]), np.ones(2), 1.5, state, 4)
    assert state.tolist() == [0.5, 0.25]


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


@pytest.mark.parametrize("length", [0.01, 1.0, 3.0])
def test_noise_mean_bound_takes_the_kernel_variance(length):
    # the closed form against the sample deviation of 10^6 draws, whose
    # relative standard error is below 0.1%
    rng = np.random.default_rng(12)
    vals = spiking.pair_kernel(rng.uniform(2.0, 2.0 + length, 10**6), 2.0, 2.0 + length)
    sd = spiking.noise_mean_bound(2.0, 2.0 + length, 1) / spiking.NOISE_Z
    assert abs(vals.std() / sd - 1.0) < 0.01
    assert spiking.noise_mean_bound(2.0, 2.0 + length, 100) == pytest.approx(
        spiking.NOISE_Z * sd / 10.0)


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
