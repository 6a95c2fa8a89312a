"""Tests for the event-driven spiking model."""

import contextlib
import dataclasses
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplex_stdp import spiking
from simplex_stdp.dynamics import sample_triggers
from simplex_stdp.simplex import InvalidInputError
from paths import labelled, on_each_path, require_compiled


def _stream(lam, n, rng):
    """The first n events (times, ids) of `poisson_events`' stream."""
    with contextlib.closing(spiking.poisson_events(lam, rng)) as events:
        pieces = list(itertools.islice(events, -(-n // spiking.EVENT_PIECE)))
    return tuple(np.concatenate(a)[:n] for a in zip(*pieces))


def test_membrane_spikes_only_at_input_times_and_resets():
    rng = np.random.default_rng(1)
    lam = np.array([10.0, 7.5, 5.0])
    times, ids = _stream(lam, 4500, rng)
    # each neuron fires at its own rate, about 200 time units of input
    rates = np.bincount(ids, minlength=3) / times[-1]
    assert np.all(np.abs(rates - lam) < 0.1 * lam)
    spikes, triggers, walked = spiking.membrane(times, ids, np.ones(3), 5.0, np.zeros(2),
                                                times.size)
    assert walked == times.size and spikes.size > 0
    # each spike is an input event, with that event's neuron as its trigger
    at = np.searchsorted(times, spikes)
    assert np.array_equal(times[at], spikes) and np.array_equal(ids[at], triggers)
    # the potential restarts from zero after each spike and grows by at most
    # one weight per event, so each spike takes at least 5 events
    assert np.diff(at, prepend=-1).min() >= 5


@st.composite
def membrane_case(draw):
    """A stream of dyadic times in order (ties included) and neuron ids,
    perhaps not every neuron firing, with weights that may be 0, a threshold
    that may lie below every weight, so that every event fires, and a spike
    cap that may stop the walk."""
    d = draw(st.sampled_from([1, 2, 3, 5]))
    n = draw(st.integers(0, 60))
    times = np.sort(np.array(draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)),
                             dtype=float)) / 8
    ids = np.array(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)),
                   dtype=np.int64)
    w = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]),
                               min_size=d, max_size=d)))
    w[draw(st.integers(0, d - 1))] = draw(st.sampled_from([0.25, 1.0, 3.0]))
    threshold = draw(st.one_of(st.floats(0.01, 6.0), st.just(w[w > 0].min() / 2)))
    cap = draw(st.integers(1, n + 1))
    return times, ids, w, threshold, cap


@settings(max_examples=150, deadline=None)
@given(membrane_case())
@example((np.array([0.0, 0.5, 0.5, 0.5, 1.0, 1.0]), np.array([0, 0, 0, 1, 0, 1]),
          np.array([1.0, 2.0, 0.5]), 0.25, 7))
@example((np.array([0.125, 0.125, 0.25, 0.25]), np.array([0, 1, 0, 1]), np.array([0.0, 1.0]),
          1.5, 1))
@example((np.array([0.125, 0.25, 0.5, 0.5]), np.array([2, 0, 0, 1]),
          np.array([1.0, 9.0, 2.0, 9.0, 0.5, 9.0])[::2], 1.75, 2))  # strided weights
def test_compiled_membrane_matches_python_loop(case):
    # the same spikes, walk length and end state, stopped at the cap or not
    require_compiled()
    times, ids, w, threshold, cap = case

    def run():
        state = np.zeros(2)
        return spiking.membrane(times, ids, w, threshold, state, cap) + (state,)

    (*compiled, end), (*reference, end_ref) = on_each_path(run)
    for a, b in zip(compiled[:2], reference[:2]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert compiled[2] == reference[2] and np.array_equal(end, end_ref)
    if threshold < w.min():
        assert compiled[0].size == min(cap, times.size) == compiled[2]


@st.composite
def stream_case(draw):
    """membrane_case's stream, perhaps with one time sent backwards or made
    NaN, the points where it is cut into blocks and the caps the walks take
    in turn."""
    times, ids, w, threshold, _ = draw(membrane_case())
    if times.size and draw(st.sampled_from([False, False, True])):
        times[draw(st.integers(0, times.size - 1))] = draw(st.sampled_from([-0.125, np.nan]))
    cuts = sorted(draw(st.lists(st.integers(0, times.size), max_size=4)))
    caps = draw(st.lists(st.integers(1, times.size + 1), min_size=1, max_size=4))
    return times, ids, w, threshold, cuts, caps


def _blocks(times, ids, w, threshold, cuts, caps):
    """The end state of walking the stream in the blocks between the cuts,
    each block resumed where a walk stopped, with the caps in turn, and the
    error or the spikes and the number of events walked."""
    state, spikes, triggers, walked = np.zeros(2), [np.empty(0)], [np.empty(0, np.int64)], 0
    caps = itertools.cycle(caps)
    try:
        for a, b in zip([0] + cuts, cuts + [times.size]):
            while a < b:
                got = spiking.membrane(times[a:b], ids[a:b], w, threshold, state, next(caps))
                spikes.append(got[0])
                triggers.append(got[1])
                walked += got[2]
                a += got[2]
    except InvalidInputError as exc:
        return state, type(exc)
    return state, np.concatenate(spikes), np.concatenate(triggers), walked


@settings(max_examples=150, deadline=None)
@given(stream_case())
@example((np.array([0.25, 0.5, 0.75]), np.zeros(3, dtype=np.int64), np.array([1.0]), 0.5,
          [1, 2], [2]))  # stopped at the cap inside a block
@example((np.array([0.25, 0.5, 0.375]), np.zeros(3, dtype=np.int64), np.array([1.0]), 1.5,
          [2], [3]))  # backwards across a cut
def test_blocked_stream_equals_one_pass(case):
    # the state carried across any cuts and stops gives one pass's spikes,
    # end state, events walked and error (time backwards or NaN), on both
    # paths
    times, ids, w, threshold, cuts, caps = case

    def run():
        return [_blocks(times, ids, w, threshold, c, k)
                for c, k in (([], [times.size + 1]), (cuts, caps))]

    results = [got for side in on_each_path(run) for got in side]
    for got in results[1:]:
        assert len(got) == len(results[0])
        for a, b in zip(got, results[0]):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
            else:
                assert a == b


@labelled("python")
@pytest.mark.parametrize("times, ids", [
    ([0.1, 0.2, 0.3], [0, 2, 1]),  # a neuron with no weight
    ([0.1, 0.5, 0.25], [0, 1, 2]),  # unsorted
    ([0.25, np.nan, 0.5], [0, 1, 2]),
    ([0.25, np.inf], [0, 1]),
    ([-0.25, 0.5], [0, 1]),  # before the membrane starts at 0
], ids=["short-weights", "unsorted", "nan", "inf", "negative"])
def test_membrane_rejects_mismatched_or_bad_trains(path, times, ids):
    with pytest.raises(InvalidInputError):
        spiking.membrane(np.array(times), np.array(ids), np.ones(2), 1.5, np.zeros(2), 3)


def test_membrane_checks_its_weights_and_threshold():
    # collect_triggers and the closed loop check them on both paths before
    # any event is walked; a NaN threshold once left the closed loop
    # walking forever
    rng = np.random.default_rng(0)
    runs = [lambda w, threshold: spiking.collect_triggers([1.0, 1.0], w, threshold, 2, rng),
            lambda w, threshold: spiking.spiking_learning_run([1.0, 1.0], w, threshold, 0.1, 3,
                                                              rng)]

    def check():
        for run in runs:
            w = np.array([1.0, 2.0])
            run(w, 1.5)
            assert w.tolist() == [1.0, 2.0]
            for bad in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(InvalidInputError, match="threshold"):
                    run(w, bad)
            with pytest.raises(InvalidInputError, match="finite"):
                run([1.0, np.nan], 1.0)
            with pytest.raises(InvalidInputError, match="one weight per intensity"):
                run(np.ones(3), 1.0)

    on_each_path(check)


@labelled("python")
def test_walk_stops_at_its_cap(path):
    # every one of the three events fires: a cap of 2 stops the walk after
    # the second, and the rest of the stream resumes from its state
    times, ids, w = np.array([0.25, 0.5, 0.75]), np.zeros(3, dtype=np.int64), np.array([1.0])
    state = np.zeros(2)
    spikes, triggers, walked = spiking.membrane(times, ids, w, 0.5, state, 2)
    assert spikes.tolist() == [0.25, 0.5] and triggers.tolist() == [0, 0] and walked == 2
    assert state.tolist() == [0.0, 0.5]
    assert spiking.membrane(times[2:], ids[2:], w, 0.5, state, 2)[0].tolist() == [0.75]
    with pytest.raises(InvalidInputError, match="cap"):
        spiking.membrane(times, ids, w, 0.5, state, 0)
    assert state.tolist() == [0.0, 0.75]


@labelled("python")
@pytest.mark.parametrize("bad", [-1, 2])
def test_membrane_rejects_neuron_ids_out_of_range(path, bad):
    # checked before either walk indexes w with them, the state untouched
    state = np.array([0.5, 0.25])
    with pytest.raises(InvalidInputError, match="neuron ids"):
        spiking.membrane(np.array([0.5, 0.75]), np.array([0, bad]), np.ones(2), 1.5, state, 4)
    assert state.tolist() == [0.5, 0.25]


def _whole_pieces(lam, n, rng):
    """The trigger ids of the first n events of the Poisson stream drawn in
    whole pieces, each piece's EVENT_PIECE gaps and then its uniforms: the
    stream's definition, without a membrane."""
    u = []
    for _ in range(-(-n // spiking.EVENT_PIECE)):
        rng.exponential(1.0 / lam.sum(), spiking.EVENT_PIECE)
        u.append(rng.random(spiking.EVENT_PIECE))
    return sample_triggers(lam / lam.sum(), np.concatenate(u)[:n])


# a threshold below every weight fires at every event, so the n-th spike is
# the n-th event: these end mid-piece, at a piece's end, at the next piece's
# first event, at the second piece's end and mid-way through the third
ENDS = [lambda: 5, lambda: spiking.EVENT_PIECE, lambda: spiking.EVENT_PIECE + 1,
        lambda: 2 * spiking.EVENT_PIECE, lambda: 2 * spiking.EVENT_PIECE + 5]
LAM = np.array([10.0, 7.5, 5.0])


@labelled("python")
@pytest.mark.parametrize("end", range(len(ENDS)))
def test_collect_triggers_leaves_the_stream_where_whole_blocks_do(path, end):
    # a walk draws no piece past the one it stops in, so what follows in rng
    # reads the stream from the end of that piece
    n = ENDS[end]()
    rng = np.random.default_rng(13)
    ids = spiking.collect_triggers(LAM, np.ones(3), 0.5, n, rng)
    reference = np.random.default_rng(13)
    assert np.array_equal(ids, _whole_pieces(LAM, n, reference))
    assert rng.random(3).tolist() == reference.random(3).tolist()


@labelled("python")
@pytest.mark.parametrize("end", range(len(ENDS)))
def test_learning_run_leaves_the_stream_where_whole_blocks_do(path, end):
    # the same on the closed loop, with pieces of 16 events; weights learn
    # upwards only here, each window holding its own trigger
    with mock.patch.object(spiking, "EVENT_PIECE", 16):
        n = ENDS[end]()
        rng = np.random.default_rng(14)
        run = spiking.spiking_learning_run(LAM, np.ones(3), 0.5, 0.1, n, rng)
        reference = np.random.default_rng(14)
        assert np.array_equal(run.trigger_ids, _whole_pieces(LAM, n, reference))
    assert rng.random(3).tolist() == reference.random(3).tolist()


@labelled("python")
def test_unreachable_threshold_stops_at_the_event_budget(path):
    # weights of 1 at a summed rate of 2 hold the potential near 2, so a
    # threshold of 1e6 is never reached: both walks once drew blocks
    # forever. Past the budget they raise, counting whole membrane calls.
    rng = np.random.default_rng(15)
    runs = {spiking.EVENT_PIECE: lambda t: spiking.collect_triggers(np.ones(2), np.ones(2), t,
                                                                    10, rng),
            spiking.LEARN_WALK: lambda t: spiking.spiking_learning_run(np.ones(2), np.ones(2), t,
                                                                       0.1, 10, rng)}
    with mock.patch.object(spiking, "MAX_EVENTS_PER_SPIKE", 10000):
        for step, run in runs.items():
            run(5.0)
            with pytest.raises(InvalidInputError, match="not reached") as raised:
                run(1e6)
            quiet = int(re.search(r"no spike in (\d+) events", str(raised.value)).group(1))
            assert 10000 < quiet <= 10000 + step


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


# about 2^16 draws take eight blocks; the mean is the sum of the blocks'
# sums, while the bounds and rng's position are those of one draw
@pytest.mark.parametrize("n", [1, spiking.NOISE_BLOCK - 1, spiking.NOISE_BLOCK,
                               spiking.NOISE_BLOCK + 1, 65535, 65536, 65537, 10**6])
def test_blocked_noise_stats_equal_one_draw(n):
    rng = np.random.default_rng(11)
    tau = rng.uniform(1.5, 4.0, n)
    vals = np.exp(tau - 4.0) - np.exp(1.5 - tau)
    total = sum(vals[a:a + spiking.NOISE_BLOCK].sum() for a in range(0, n, spiking.NOISE_BLOCK))
    expected = (float(total / n), float(vals.min()), float(vals.max()), rng.random())
    blocked = np.random.default_rng(11)
    got = spiking.centered_noise_stats(1.5, 4.0, n, blocked) + (blocked.random(),)
    assert got == expected


def test_pair_kernel_trigger_term():
    # a single spike exactly at the window end contributes 1 - exp(-duration)
    assert abs(spiking.pair_kernel(2.0, 1.0, 2.0) - (1.0 - np.exp(-1.0))) < 1e-15


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
    with pytest.raises(InvalidInputError, match="n_spikes"):
        spiking.spiking_learning_run(np.ones(2), np.ones(2), 3.0, 0.1, -1,
                                     np.random.default_rng(0))


@labelled("python")
def test_learning_run_windows_cross_blocks(path):
    # one fixed stream served in blocks of 1, 3, 7 and whole gives the same
    # record: a window's events are carried across block boundaries
    lam = np.array([10.0, 7.5, 5.0])
    times, ids = _stream(lam, 3000, np.random.default_rng(9))

    def run(size):
        blocks = ((times[a:a + size].copy(), ids[a:a + size].copy())
                  for a in range(0, times.size, size))
        with mock.patch.object(spiking, "poisson_events", lambda *args: blocks):
            return spiking.spiking_learning_run(lam, np.ones(3), 5.0, 0.2, 200, None)

    records = [run(size) for size in (1, 3, 7, times.size)]
    for record in records[1:]:
        for field in dataclasses.fields(record):
            a, b = getattr(record, field.name), getattr(records[0], field.name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
    # each window's increments are alpha times the per-neuron sums of the
    # kernel over its events, up to the spike's own event
    run = records[0]
    cut = np.abs(times[:, None] - np.cumsum(run.window_durations)).argmin(axis=0) + 1
    assert np.array_equal(ids[cut - 1], run.trigger_ids)
    assert np.allclose(np.diff(times[cut - 1], prepend=0.0), run.window_durations, rtol=1e-12)
    for k in (0, 1, 100, 199):
        start = cut[k - 1] if k else 0
        t_prev = times[start - 1] if k else 0.0
        tau, j = times[start:cut[k]], ids[start:cut[k]]
        hand = [sum(spiking.pair_kernel(tau[j == i], t_prev, times[cut[k] - 1]).tolist())
                for i in range(3)]
        assert run.relative_increments[k] == pytest.approx(0.2 * np.array(hand), rel=1e-12)
