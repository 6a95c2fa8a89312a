"""Property tests of the compiled loops: `dynamics.simulate` and the joint
multi-output loop, each against its numpy loop; and of the RK4 flow, whose
batched rows are their starts integrated alone."""

import contextlib
import dataclasses
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplex_stdp import _kernel, cli, dynamics, flow, multi, theory
from simplex_stdp.simplex import as_probability_vector
from small_runs import SMALL_OVERRIDES, small_args

SETTINGS = settings(max_examples=40, deadline=None)

dims = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
steps = st.integers(min_value=0, max_value=60)
alphas = st.floats(min_value=1e-3, max_value=0.45)


def positive_vector(d, min_value=0.05):
    return st.lists(st.floats(min_value=min_value, max_value=10.0), min_size=d, max_size=d).map(
        np.array
    )


@st.composite
def simplex_point(draw, d, zeros=False):
    """A probability vector; with zeros=True some (not all) entries are 0."""
    w = draw(positive_vector(d))
    if zeros:
        mask = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        mask[draw(st.integers(0, d - 1))] = True
        w = w * np.array(mask)
    return w / w.sum()


@st.composite
def correlation(draw, d):
    g = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            g[i, j] = g[j, i] = draw(st.floats(min_value=0.0, max_value=1.0))
    return g


@st.composite
def batch_case(draw):
    """A batch of 1-4 trajectories in one of the three forms."""
    d = draw(dims)
    n = draw(st.integers(min_value=1, max_value=4))
    form = draw(st.sampled_from(["probability", "switched", "correlated"]))
    kwargs = {}
    state0 = np.stack([draw(simplex_point(d)) for _ in range(n)])
    if form == "switched":
        kwargs["switch"] = (draw(st.integers(0, 65)), draw(positive_vector(d, min_value=0.5)))
    elif form == "correlated":
        kwargs["gamma"] = draw(correlation(d))
    keys = [(draw(seeds), i) for i in range(n)]
    return state0, keys, kwargs


@SETTINGS
@given(batch_case(), alphas, steps)
def test_batch_members_equal_solo_runs(case, alpha, n_steps):
    state0, keys, kwargs = case
    batch = dynamics.simulate(state0, alpha, n_steps, keys, **kwargs)
    for i, key in enumerate(keys):
        solo = dynamics.simulate(state0[i:i + 1], alpha, n_steps, [key], **kwargs)
        assert np.array_equal(batch[i], solo[0])


@SETTINGS
@given(dims.flatmap(lambda d: simplex_point(d, zeros=True)), seeds, alphas, steps)
def test_zero_entries_stay_zero_and_rows_sum_to_one(p0, seed, alpha, n_steps):
    p = dynamics.simulate(np.tile(p0, (3, 1)), alpha, n_steps, [(seed, i) for i in range(3)])
    assert np.all(p[:, p0 == 0.0] == 0.0)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


@SETTINGS
@given(dims.flatmap(lambda d: st.tuples(positive_vector(d, 0.5), positive_vector(d),
                                        positive_vector(d, 0.5))),
       seeds, st.floats(min_value=1e-3, max_value=0.05),
       st.integers(min_value=0, max_value=300), st.none() | st.integers(0, 300))
# a switch at the horizon does nothing
@example((np.array([1.0, 2.0]), np.ones(2), np.array([2.0, 1.0])), 0, 0.05, 10, 10)
def test_weight_and_probability_forms_agree(case, seed, alpha, n_steps, k_switch):
    """The probability run, switched by the ratio of two intensity vectors,
    against the weight rule stepped under those intensities."""
    lam, w0, lam_switched = case
    keys = [(seed, 0), (seed, 1)]
    switch = None if k_switch is None else (k_switch, lam_switched / lam)
    with mock.patch.object(dynamics, "CHUNK", 64):
        p = dynamics.simulate(np.tile(dynamics.probabilities(lam, w0), (2, 1)), alpha, n_steps,
                              keys, switch=switch)
    states, _ = _layout_oracle(np.tile(w0, (2, 1)), alpha, n_steps, keys, lam=lam, switch=switch)
    assert np.abs(states[-1] - p).max() < 1e-11


@settings(max_examples=200, deadline=None)
@given(dims.flatmap(lambda d: simplex_point(d, zeros=True)),
       st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@example(np.array([0.0, 1.0]), 0.0)
@example(np.array([0.5, 0.0, 0.5]), 0.5)
@example(np.array([0.25, 0.0, 0.75, 0.0]), 0.25)
# the total rounds to 1 - 2**-53, so the largest uniform lies at or above it
@example(np.array([0.23198402839841684, 0.554702073152752, 0.2133138984488311, 0.0]),
         1.0 - 2.0**-53)
def test_trigger_never_picks_a_zero_coordinate(p, u):
    assert p[dynamics.sample_triggers(p, u)] > 0
    # u exactly on each cumulative sum below 1
    for c in np.cumsum(p):
        if c < 1.0:
            assert p[dynamics.sample_triggers(p, c)] > 0


@st.composite
def weight_case(draw):
    """Intensities and a (d, d_out) weight matrix of positive entries whose
    columns may all be equal, as in fig3."""
    d = draw(dims)
    lam = draw(positive_vector(d, min_value=0.5))
    w0 = np.stack([draw(positive_vector(d)) for _ in range(draw(st.integers(1, d)))], axis=1)
    if draw(st.booleans()):
        w0[:, 1:] = w0[:, :1]
    return lam, w0


@SETTINGS
# 2^±1000 keeps every entry of w0 in [0.05, 10] normal; the scaled rows
# leave the range the step keeps lam * w sums in at their first step
@given(weight_case(), seeds, alphas, steps,
       st.sampled_from([2.0**40, 2.0**-40, 2.0**1000, 2.0**-1000]))
def test_weight_runs_are_scale_invariant(case, seed, alpha, n_steps, scale):
    lam, w0 = case
    d_out = w0.shape[1]
    # every column scaled, then every other column: the joint scheme is
    # scale-invariant column by column
    scaled = (w0, w0 * scale, w0 * scale ** (np.arange(d_out) % 2))
    # a short chunk makes the runs cross chunk boundaries too
    with mock.patch.object(dynamics, "CHUNK", 16):
        joint = [multi.joint_final_errors(lam, w, [alpha] * d_out, n_steps, 2, seed)
                 for w in scaled]
        success = [multi.sequential_success_ensemble(lam, w[:, 0], alpha, n_steps, 3, seed)
                   for w in scaled[:2]]
    for other in (1, 2):
        assert np.array_equal(joint[0], joint[other])
    assert np.array_equal(success[0], success[1])


@SETTINGS
@given(dims.flatmap(lambda d: st.tuples(positive_vector(d, 0.5), positive_vector(d),
                                        st.lists(st.floats(-1.0, 1.0), min_size=d,
                                                 max_size=d).map(np.array))),
       alphas, st.integers(min_value=-150, max_value=800))
def test_rescale_leaves_probabilities_and_updates_unchanged(case, alpha, exponent):
    lam, w, z = case
    w = np.ldexp(w, exponent)[None]
    y = np.eye(w.shape[1])[0] + z
    w_scaled = dynamics.rescale(w)
    assert 0.5 <= w_scaled.max() < 1.0
    assert np.array_equal(dynamics.probabilities(lam, w_scaled), dynamics.probabilities(lam, w))
    assert np.array_equal(dynamics.probabilities(lam, w_scaled * (1.0 + alpha * y)),
                          dynamics.probabilities(lam, w * (1.0 + alpha * y)))


def _overflow_runs():
    """lam and the alpha=0.45 joint runs, each run(record), whose weights
    used to leave the float range: lam * w of a run with one column summed
    past it at step 2014, and a three-column run overflowed its column
    norms."""
    lam = np.array([10.0, 7.5, 5.0])
    configs = [multi.MultiRunConfig(lam=lam, w0=np.ones((3, d_out)), alphas=[0.45] * d_out,
                                    n_steps=3000) for d_out in (1, 3)]
    runs = [lambda record, config=config: multi._joint_steps(config, [(5,)], record)
            for config in configs]
    return lam, runs


def test_rescaling_between_chunks_prevents_overflow():
    """These joint runs used to overflow within one chunk of the default
    length and finished only with the weights rescaled between shorter
    chunks. The step now scales a column whose lam * w sum leaves
    [2^-256, 2^256], so at every chunk length they finish with finite
    probabilities, the same bit for bit on the compiled and numpy paths."""
    lam, runs = _overflow_runs()
    paths = [_numpy_loop] + ([] if _kernel.library() is None else [contextlib.nullcontext])
    for run, chunk in itertools.product(runs, (dynamics.CHUNK, 256, 16)):
        finals = []
        for path in paths:
            with path(), mock.patch.object(dynamics, "CHUNK", chunk):
                finals.append(run(None))
        assert np.all(np.isfinite(dynamics.probabilities(lam, finals[0])))
        assert np.array_equal(finals[0], finals[-1])


@pytest.mark.parametrize("path", ["compiled", "numpy"])
def test_runs_stop_at_the_first_state_that_is_not_finite(path):
    """No joint-scheme state is non-finite any more, so no run stops: the
    one-column run used to stop at step 2014. Recorded every step, each now
    reaches step 3000 with finite lam * w sums and ends where its unrecorded
    run ends."""
    if path == "compiled":
        _require_compiled_step()
    lam, runs = _overflow_runs()
    for run in runs:
        recorder = dynamics.Recorder(range(3001))
        with (_numpy_loop() if path == "numpy" else contextlib.nullcontext()):
            run(recorder)
            final = run(None)
        assert len(recorder.states) == 3001
        assert np.all(np.isfinite((lam * np.stack(recorder.states)).sum(axis=-1)))
        assert np.array_equal(recorder.states[-1], final.reshape(recorder.states[-1].shape))


@settings(max_examples=15, deadline=None)
@given(seeds, steps, st.sampled_from([2, 3]))
def test_ensemble_members_equal_single_runs(seed, n_steps, d_out):
    lam = np.array([10.0, 7.5, 5.0])
    w0 = np.ones((3, d_out))
    alphas = 0.05 * np.arange(1, d_out + 1)
    config = multi.MultiRunConfig(lam=lam, w0=w0, alphas=alphas, n_steps=n_steps)
    errors = multi.joint_final_errors(lam, w0, alphas, n_steps, 3, seed)
    final = multi._joint_steps(config, [(seed, s) for s in range(3)])
    success = multi.sequential_success_ensemble(lam, np.ones(3), 0.05, n_steps, 3, seed)
    for s in range(3):
        p = multi.joint_run(config, (seed, s)).probabilities[-1]
        assert np.array_equal(p, dynamics.probabilities(lam, final[s]).T)
        assert errors[s] == multi.frobenius_half_error(p)
        _, p_star = multi.sequential_run(lam, np.ones(3), 0.05, n_steps, (seed, s))
        assert success[s] == np.array_equal(p_star, np.eye(3))
    # an int seed is the key prefix (seed,): column j keeps the stream (seed, j)
    assert np.array_equal(multi.joint_run(config, seed).probabilities,
                          multi.joint_run(config, (seed,)).probabilities)
    assert np.array_equal(multi.sequential_run(lam, np.ones(3), 0.05, n_steps, seed)[0],
                          multi.sequential_run(lam, np.ones(3), 0.05, n_steps, (seed,))[0])


@st.composite
def joint_case(draw):
    """A joint run with d_out columns of equal or drawn starts, rates up to
    0.45 at which deflation clips, and a chunk length that makes it cross
    chunk and recording boundaries."""
    d = draw(st.sampled_from([2, 3, 5]))
    d_out = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        w0 = np.ones((d, d_out))
    else:
        w0 = np.stack([draw(positive_vector(d)) for _ in range(d_out)], axis=1)
    config = multi.MultiRunConfig(
        lam=draw(positive_vector(d, min_value=0.5)), w0=w0,
        alphas=draw(st.lists(alphas, min_size=d_out, max_size=d_out)),
        n_steps=draw(st.integers(min_value=0, max_value=120)))
    return config, draw(seeds), draw(st.sampled_from([1, 7, 16])), draw(st.integers(1, 20))


@settings(max_examples=60, deadline=None)
@given(joint_case())
# equal columns at rate 0.45 clip 343 entries over these 120 steps
@example((multi.MultiRunConfig(lam=np.array([10.0, 7.5, 5.0]), w0=np.ones((3, 3)),
                               alphas=[0.45] * 3, n_steps=120), 5, 7, 9))
def test_joint_recordings_do_not_depend_on_the_stride(case):
    config, seed, chunk, stride = case
    with mock.patch.object(dynamics, "CHUNK", chunk):
        every = multi.joint_run(config, seed)
        strided = multi.joint_run(dataclasses.replace(config, record_stride=stride), seed)
        final = multi._joint_steps(config, [(seed,)])[0]
    shared = np.searchsorted(every.recorded_steps, strided.recorded_steps)
    assert np.array_equal(every.recorded_steps[shared], strided.recorded_steps)
    assert np.array_equal(every.weights[shared], strided.weights)
    assert np.array_equal(every.probabilities[shared], strided.probabilities)
    assert every.clip_events == strided.clip_events
    assert np.array_equal(strided.weights[-1], final.T)


def _numpy_loop():
    """Run simulate and the joint scheme as on a machine without the
    compiled steps."""
    return mock.patch.object(_kernel, "library", lambda: None)


def _require_compiled_step():
    if _kernel.library() is None:
        pytest.skip("compiled step not available")


@st.composite
def compiled_case(draw):
    """A batch with gap tracking, or started from the probabilities of
    weights w0 under lam with an intensity switch to lam_switched (none, at
    step 0, mid-chunk, on a chunk boundary, at n_steps or past the horizon),
    recorded at every step and, as a single trajectory without the switch,
    at a stride; independent or correlated triggers, zero entries, and a
    chunk length that makes runs cross chunk and checkpoint boundaries."""
    d = draw(st.sampled_from([2, 3, 5, 8]))
    n = draw(st.integers(min_value=1, max_value=4))
    n_steps = draw(st.integers(min_value=0, max_value=120))
    chunk = draw(st.sampled_from([1, 7, 16, 64]))
    case = {
        "d": d, "n": n, "n_steps": n_steps,
        "alpha": draw(alphas),
        "seed": draw(seeds),
        "chunk": chunk,
        "gamma": draw(correlation(d)) if draw(st.booleans()) else None,
    }
    if draw(st.booleans()):
        # the first coordinate stays strictly dominant; the others may be 0
        rest = draw(simplex_point(d - 1, zeros=True)) * draw(st.floats(0.05, 0.95))
        p0 = np.append(max(rest.max(), 1.0 - rest.sum()) + 0.05, rest)
        case["p0"] = p0 / p0.sum()
        case["checkpoints"] = draw(st.lists(st.integers(0, n_steps), max_size=5))
        if case["gamma"] is not None:
            # GapParams refuses a gamma @ p0 without a dominant first coordinate
            gp = case["gamma"] @ as_probability_vector(case["p0"])
            assume(gp[0] - gp[1:].max() > 0)
    else:
        mask = np.ones((n, d), dtype=bool)
        mask[:, 1:] = draw(st.lists(st.booleans(), min_size=d - 1, max_size=d - 1))
        case["w0"] = np.stack([draw(positive_vector(d)) for _ in range(n)]) * mask
        case["lam"] = draw(positive_vector(d, min_value=0.5))
        case["lam_switched"] = draw(positive_vector(d, min_value=0.5))
        case["switch"] = draw(st.one_of(
            st.none(), st.just(0), st.integers(1, n_steps + 5),
            st.integers(1, 3).map(lambda j: j * chunk), st.just(n_steps), st.just(n_steps + 1)))
        case["stride"] = draw(st.integers(1, 20))
    return case


def _run_case(case):
    with mock.patch.object(dynamics, "CHUNK", case["chunk"]):
        if "p0" in case:
            final, tracker = theory.run_gap_ensemble(
                case["p0"], case["alpha"], case["n_steps"], case["n"], case["seed"],
                gamma=case["gamma"], checkpoints=case["checkpoints"])
            return [final, tracker.states, tracker.martingales, tracker.alive,
                    tracker.ek_violations]
        keys = [(case["seed"], i) for i in range(case["n"])]
        p0 = dynamics.probabilities(case["lam"], case["w0"])
        switch = None
        if case["switch"] is not None:
            switch = (case["switch"], case["lam_switched"] / case["lam"])
        recorder = dynamics.Recorder(range(case["n_steps"] + 1))
        final = dynamics.simulate(p0, case["alpha"], case["n_steps"], keys, gamma=case["gamma"],
                                  record=recorder, switch=switch)
        config = dynamics.DynamicsConfig(
            alpha=case["alpha"], n_steps=case["n_steps"], p0=p0[0], gamma=case["gamma"],
            record_stride=case["stride"])
        rec = dynamics.run_trajectory(config, keys[0])
        return [final, np.stack(recorder.states), rec.states]


# a rate this large ends the gap event of member 0 at its first step while the
# martingales stay small, so both paths count inclusion violations (100, one per
# step); of seeds 0-999 only 316 and 838 end any member's gap event here
VIOLATING = {"d": 2, "n": 4, "n_steps": 100, "alpha": 0.45, "seed": 316, "chunk": 16,
             "gamma": None, "p0": np.array([0.87, 0.13]), "checkpoints": [0, 7, 60, 100]}


@settings(max_examples=120, deadline=None)
@given(compiled_case())
@example(VIOLATING)
@example({"d": 3, "n": 4, "n_steps": 120, "alpha": 0.45, "seed": 1, "chunk": 7,
          "gamma": np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.0], [0.1, 0.0, 1.0]]),
          "p0": np.array([0.5, 0.3, 0.2]), "checkpoints": [0, 7, 60, 120]})
@example({"d": 8, "n": 2, "n_steps": 100, "alpha": 0.3, "seed": 2, "chunk": 16,
          "gamma": None, "p0": np.array([0.3, 0.2, 0.0, 0.1, 0.1, 0.1, 0.2, 0.0]),
          "checkpoints": [16, 50, 100]})
@example({"d": 3, "n": 3, "n_steps": 100, "alpha": 0.3, "seed": 4, "chunk": 16,
          "gamma": np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.3], [0.0, 0.3, 1.0]]),
          "w0": np.array([[1.0, 2.0, 0.0], [0.5, 0.5, 3.0], [2.0, 1.0, 1.0]]),
          "lam": np.array([3.0, 1.0, 2.0]), "lam_switched": np.array([1.0, 1.0, 5.0]),
          "switch": 32, "stride": 7})
# d = 2 and d = 3 have their own compiled instantiations of the step: each
# takes the weight form with a switch (untracked) and the tracked form, with
# a zero coordinate
@example({"d": 2, "n": 3, "n_steps": 100, "alpha": 0.3, "seed": 5, "chunk": 16, "gamma": None,
          "w0": np.array([[1.0, 2.0], [3.0, 0.0], [0.5, 0.5]]), "lam": np.array([2.0, 1.0]),
          "lam_switched": np.array([1.0, 4.0]), "switch": 40, "stride": 9})
@example({"d": 2, "n": 3, "n_steps": 100, "alpha": 0.3, "seed": 6, "chunk": 7,
          "gamma": np.array([[1.0, 0.3], [0.3, 1.0]]), "p0": np.array([0.7, 0.3]),
          "checkpoints": [0, 50, 100]})
@example({"d": 2, "n": 2, "n_steps": 60, "alpha": 0.2, "seed": 7, "chunk": 16, "gamma": None,
          "p0": np.array([1.0, 0.0]), "checkpoints": [0, 60]})
@example({"d": 3, "n": 3, "n_steps": 100, "alpha": 0.3, "seed": 8, "chunk": 16, "gamma": None,
          "w0": np.array([[1.0, 2.0, 0.0], [0.5, 0.5, 3.0], [2.0, 1.0, 1.0]]),
          "lam": np.array([3.0, 1.0, 2.0]), "lam_switched": np.array([1.0, 1.0, 5.0]),
          "switch": 32, "stride": 7})
@example({"d": 3, "n": 3, "n_steps": 120, "alpha": 0.3, "seed": 9, "chunk": 16, "gamma": None,
          "p0": np.array([0.6, 0.4, 0.0]), "checkpoints": [0, 64, 120]})
def test_compiled_step_matches_numpy_loop(case):
    _require_compiled_step()
    compiled = _run_case(case)
    with _numpy_loop():
        reference = _run_case(case)
    for a, b in zip(compiled, reference):
        assert np.array_equal(a, b)


def test_violating_example_ends_the_gap_event():
    _, _, _, alive, violations = _run_case(VIOLATING)
    assert not alive.all() and violations > 0


@settings(max_examples=60, deadline=None)
@given(joint_case(), st.integers(min_value=2, max_value=3))
# equal columns at rate 0.45 clip entries in every run of the batch
@example((multi.MultiRunConfig(lam=np.array([10.0, 7.5, 5.0]), w0=np.ones((3, 3)),
                               alphas=[0.45] * 3, n_steps=120), 5, 7, 9), 2)
def test_compiled_joint_step_matches_numpy_loop(case, n_runs):
    """The compiled joint step against `multi._joint_step`, bit for bit: a
    batch of runs recorded at a stride with its clipped entries counted, its
    final columns, and a single run recorded at every step."""
    _require_compiled_step()
    config, seed, chunk, stride = case

    def run():
        recorder = multi._ClipCounter(range(0, config.n_steps + 1, stride))
        with mock.patch.object(dynamics, "CHUNK", chunk):
            final = multi._joint_steps(config, [(seed, s) for s in range(n_runs)], recorder)
            single = multi.joint_run(config, seed)
        return [final, np.stack(recorder.states), recorder.clip_events, single.weights,
                single.probabilities, single.clip_events]

    compiled = run()
    with _numpy_loop():
        reference = run()
    for a, b in zip(compiled, reference):
        assert np.array_equal(a, b)


class _ScriptedStreams:
    """A stand-in for `dynamics.Streams` whose rows draw scripted uniforms in
    step order, per step u (n, s) for the trigger, then v (n, s, d) for the
    noise: the compiled step reads them through the ctypes callback
    `next_double`, the numpy step through `segments`, which turns v into
    noise as the kernel does."""

    def __init__(self, u, v):
        import ctypes

        self.u, self.v = u, v
        # any distinct nonzero address: the callback, not the kernel, reads it
        self.addresses = np.arange(1, len(u) + 1, dtype=np.uintp)
        draws = {i + 1: iter(np.concatenate([u[i][:, None], v[i]], axis=1).ravel())
                 for i in range(len(u))}
        self.callback = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(
            lambda address: next(draws[address]))
        self.next_double = ctypes.cast(self.callback, ctypes.c_void_p).value

    def segments(self, s):
        yield self.u[:, :s], -1.0 + 2.0 * self.v[:, :s], None


def test_joint_step_caps_triggers_at_the_last_positive_probability():
    """The probabilities p of w sum to 1 - 2^-53 before any trailing zero, so
    u = 1 - 2^-53 lies at or above every cumulative sum: both joint steps,
    on w, and both probability steps, on p, must trigger the last positive
    entry, not d - 1, whose zero weight would take no increment. The case
    runs at d = 4 and, for the compiled step's own instantiations, at d = 2
    and at d = 3 with a trailing zero. The d = 2 and d = 3 weights are a row
    of default_rng(0).random((1000, 2)); about one row in twenty sums so."""
    _require_compiled_step()
    u = np.nextafter(1.0, 0.0)
    a, b = 0.8097107759127777, 0.5604759520061858
    for w, last in [([16.0, 4.0, 4.0, 0.0], 2), ([a, b], 1), ([a, b, 0.0], 1)]:
        d = len(w)
        lam, w = np.ones(d), np.array([w])
        p = dynamics.probabilities(lam, w)
        assert np.cumsum(p, axis=1)[0, last] == u
        rate = np.array([[0.1]])
        runs = [(_kernel.joint, w, rate, lam), (multi._joint_step, w, rate, lam),
                (_kernel.prepare, p, 0.1, None), (dynamics.numpy_step, p, 0.1, None)]
        finals = []
        for step, x0, alpha, step_lam in runs:
            x = x0.copy()
            # noise uniforms of 1/2 are zero noise
            streams = _ScriptedStreams(np.array([[u]]), np.full((1, 1, d), 0.5))
            step(x, alpha, streams, step_lam, None, None)(0, 1)
            finals.append(x)
        y = np.eye(d)[last]
        moved = p * (1.0 + 0.1 * y)
        expected = [w + 0.1 * w * y] * 2 + [moved / moved.sum(axis=1, keepdims=True)] * 2
        for final, want in zip(finals, expected):
            assert np.array_equal(final, want), (d, final, want)


@st.composite
def flow_case(draw):
    """A flow spec from a batch of 1-4 starts in d = 2..12 (past 8 the
    pairwise sums take their unrolled branch), with or without gamma,
    recorded at every step or at a stride, over 0 to 150 steps."""
    d = draw(st.integers(min_value=2, max_value=12))
    dt = draw(st.sampled_from([1e-3, 0.01, 0.1, 0.5]))
    starts = [draw(simplex_point(d)) for _ in range(draw(st.integers(1, 4)))]
    return flow.FlowSpec(
        p0=np.stack(starts), horizon=draw(st.integers(0, 150)) * dt, dt=dt,
        gamma=draw(st.none() | correlation(d)), record_stride=draw(st.sampled_from([1, 3, 10])))


def _integrated(spec):
    """The trajectory fields of integrate(spec), or the time in its
    IntegrationError."""
    try:
        traj = flow.integrate(spec)
    except flow.IntegrationError as exc:
        return float(re.search(r"left the simplex at t=(\S+) ", str(exc)).group(1))
    return [traj.times, traj.states, traj.renorm_corrections]


@settings(max_examples=80, deadline=None)
@given(flow_case())
@example(flow.FlowSpec(p0=np.full((2, 12), 1 / 12), horizon=0.0, dt=0.01))
@example(flow.FlowSpec(p0=[np.arange(1.0, 11.0) / 55.0, np.arange(10.0, 0.0, -1.0) / 55.0],
                       horizon=2.0, dt=0.01, gamma=np.full((10, 10), 0.3) + 0.7 * np.eye(10),
                       record_stride=7))
# the starts leave the simplex at t = 20, at t = 5 and never
@example(flow.FlowSpec(p0=[[0.5, 0.3, 0.2], [0.6, 0.3, 0.1], [1.0, 0.0, 0.0]], horizon=30.0,
                       dt=5.0))
# the first start overflows to NaN within its first step, which both
# p < lo and p > hi let through
@example(flow.FlowSpec(p0=[[0.5, 0.3, 0.2], [1.0, 0.0, 0.0]], horizon=2e30, dt=1e30))
def test_batched_flow_rows_equal_their_starts_alone(spec):
    """Each row of a batched flow is its start integrated alone, bit for
    bit: times, states and renormalization corrections. A batch leaves the
    simplex exactly when one of its starts does alone, at the first such t."""
    batch = _integrated(spec)
    alone = [_integrated(dataclasses.replace(spec, p0=p0)) for p0 in spec.p0]
    left = [t for t in alone if isinstance(t, float)]
    if left:
        assert batch == min(left)
        return
    times, states, corrections = batch
    for i, (t, s, c) in enumerate(alone):
        assert np.array_equal(times, t)
        assert states.dtype == s.dtype and np.array_equal(states[:, i], s)
        assert corrections.dtype == c.dtype and np.array_equal(corrections[:, i], c)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """Forget the loaded library before and after the test, with the build
    cache under tmp_path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel.library.cache_clear()
    yield tmp_path
    _kernel.library.cache_clear()


def test_kernel_loads_when_a_compiler_is_on_path(fresh_loader):
    # a silent fallback to the numpy loop would hide a lost speed-up
    if _kernel.compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert _kernel.library() is not None
    cache = fresh_loader / "simplex-stdp"
    assert cache.stat().st_mode & 0o777 == 0o700
    # one library, and no temporary file left behind
    files = list(cache.iterdir())
    assert len(files) == 1 and files[0].name.startswith("kernel-") and files[0].suffix == ".so"


def test_cache_writable_by_others_is_not_loaded(fresh_loader):
    if _kernel.compiler() is None:
        pytest.skip("no C compiler on PATH")
    cache = fresh_loader / "simplex-stdp"
    cache.mkdir(mode=0o700)
    cache.chmod(0o777)
    with pytest.warns(UserWarning, match="writable by other users"):
        assert _kernel.library() is None


def test_failed_build_falls_back_with_the_compiler_message(fresh_loader, monkeypatch):
    if _kernel.compiler() is None:
        pytest.skip("no C compiler on PATH")
    broken = fresh_loader / "broken.c"
    broken.write_text("int simplex_advance(void) { return }\n")
    monkeypatch.setattr(_kernel, "SOURCE", str(broken))
    with pytest.warns(UserWarning, match=r"(?s)compiled kernel unavailable.*exit status 1.*error"):
        assert _kernel.library() is None
    # no partial library left in the cache
    assert list((fresh_loader / "simplex-stdp").iterdir()) == []


def test_no_compiler_gives_identical_outputs(fresh_loader, tmp_path, monkeypatch):
    """Every scenario at criterion 13's size exits 0 and writes the same
    bytes on the compiled steps and on the numpy steps."""
    if _kernel.compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert set(SMALL_OVERRIDES) == set(cli.SCENARIOS)
    codes, outputs = {}, {}
    for side in ("compiled", "numpy"):
        if side == "numpy":
            monkeypatch.setattr(_kernel, "compiler", lambda: None)
            _kernel.library.cache_clear()
            assert _kernel.library() is None
        else:
            assert _kernel.library() is not None
        codes[side] = {scenario: cli.main(small_args(scenario) + ["--out", str(tmp_path / side)])
                       for scenario in sorted(SMALL_OVERRIDES)}
        outputs[side] = {
            p.relative_to(tmp_path / side): p.read_bytes()
            for p in sorted((tmp_path / side).rglob("*")) if p.is_file()
        }
    assert codes["compiled"] == codes["numpy"] == dict.fromkeys(cli.SCENARIOS, 0)
    assert outputs["compiled"] == outputs["numpy"]


def test_compiled_runs_hold_no_chunk_of_draws():
    """Peak traced memory of compiled runs over two chunks stays far below
    one chunk of pre-drawn randomness (n x CHUNK x (1 + d) doubles, 1 + 2d
    when correlated, 315 MB for the first run): the step draws as it steps."""
    _require_compiled_step()
    n_steps = 2 * dynamics.CHUNK
    gamma = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.0], [0.1, 0.0, 1.0]])
    lam = np.array([3.0, 2.0, 1.0])
    p0 = np.tile(dynamics.probabilities(lam, np.ones(3)), (50, 1))

    def gap_run(n, p0, gamma=None, gap_gamma=0.0):
        tracker = dynamics.GapTracker(n, p0.size, 0.1, 0.5, [0, n_steps // 3, n_steps], gap_gamma)
        dynamics.simulate(np.tile(p0, (n, 1)), 1e-3, n_steps, [(1, i) for i in range(n)],
                          gamma=gamma, record=tracker)

    runs = [
        lambda: gap_run(200, np.array([0.6, 0.4])),
        lambda: gap_run(50, np.array([0.5, 0.3, 0.2]), gamma, 0.05),
        lambda: dynamics.simulate(p0, 1e-3, n_steps, [(2, i) for i in range(50)],
                                  switch=(dynamics.CHUNK + 1000, lam[::-1] / lam)),
    ]
    for run in runs:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _draw_run(keys, n_steps, d, correlated):
    """The draws of a whole run, made ahead one step at a time from each
    key's stream: a trigger uniform, d noise values Unif[-1, 1], then, when
    correlated, d column uniforms. Returns u (n, n_steps), z (n, n_steps, d)
    and g (n, n_steps, d), of width 0 unless correlated."""
    n, width = len(keys), d if correlated else 0
    u, z, g = np.empty((n, n_steps)), np.empty((n, n_steps, d)), np.empty((n, n_steps, width))
    for i, key in enumerate(keys):
        rng = dynamics.stream_for(key)
        for t in range(n_steps):
            u[i, t] = rng.random()
            z[i, t] = rng.uniform(-1.0, 1.0, d)
            g[i, t] = rng.random(width)
    return u, z, g


def _layout_oracle(state0, alpha, n_steps, keys, lam=None, gamma=None, switch=None):
    """A per-step loop over the draws of `_draw_run`, stepping probabilities
    or, given lam, weights; returns the probabilities after every step
    (n_steps + 1, n, d) and every y (n, n_steps, d). switch=(k, ratio),
    k < n_steps, multiplies the intensities by ratio before step k: the
    probabilities by ratio, renormalised, or lam by ratio; the state after k
    steps is the switched one. With gamma, coordinate j spikes when its
    column uniform lies below gamma[idx, j], the trigger idx included."""
    x = np.array(state0, dtype=float)
    n, d = x.shape
    u, z, g = _draw_run(keys, n_steps, d, gamma is not None)
    k_switch, ratio = (n_steps, None) if switch is None else switch
    states, ys = [], []

    def after(k):
        nonlocal x, lam
        if k == k_switch < n_steps:
            if lam is None:
                x = x * ratio
                x = x / x.sum(axis=1, keepdims=True)
            else:
                lam = lam * ratio
        states.append(x if lam is None else dynamics.probabilities(lam, x))

    after(0)
    for t in range(n_steps):
        idx = dynamics.sample_triggers(states[-1], u[:, t])
        sig = np.eye(d)[idx] if gamma is None else np.where(g[:, t] < gamma[idx], 1.0, 0.0)
        ys.append(sig + z[:, t])
        x = x * (1.0 + alpha * ys[-1])
        if lam is None:
            x = x / x.sum(axis=1, keepdims=True)
        after(t + 1)
    return np.stack(states), np.reshape(ys, (n_steps, n, d)).swapaxes(0, 1)


# the start and gamma of each correlated form, at d = 2, 3 and 4: a step
# reads d column uniforms whatever d, where one uniform per pair would read
# 1, 3 and 6
CORRELATED = {
    "correlated-d2": ([0.6, 0.4], [[1.0, 0.5], [0.5, 1.0]]),
    "correlated": ([0.5, 0.3, 0.2], [[1.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.0]]),
    "correlated-d4": ([0.4, 0.3, 0.2, 0.1], [[1.0, 0.5, 0.1, 0.7], [0.5, 1.0, 0.3, 0.2],
                                             [0.1, 0.3, 1.0, 0.6], [0.7, 0.2, 0.6, 1.0]]),
}


@pytest.mark.parametrize("path", ["compiled", "numpy"])
@pytest.mark.parametrize("chunk", [1, 7, 16])
@pytest.mark.parametrize("form", ["probability", "weight", *CORRELATED])
def test_draws_follow_the_stream_layout(path, chunk, form):
    """simulate and run_trajectory read each row's stream in the step order
    of `dynamics.Streams`, checked against draws made ahead for the whole
    run: cutting the run into segments of at most chunk steps does not
    change them. The weight form starts from the probabilities of weights
    under intensities and switches them at step 17, as a priming run does;
    the correlated forms run at d = 2, 3 and 4."""
    if path == "compiled":
        _require_compiled_step()
    n, n_steps, alpha = 3, 40, 0.3
    keys = [(11, i) for i in range(n)]
    kwargs = {}
    if form == "weight":
        lam = np.array([3.0, 1.0, 2.0])
        w0 = np.array([[1.0, 2.0, 0.5], [3.0, 1.0, 1.0], [0.2, 0.2, 4.0]])
        state0 = dynamics.probabilities(lam, w0)
        kwargs["switch"] = (17, np.array([0.5, 2.0, 1.0]))
    elif form in CORRELATED:
        p0, kwargs["gamma"] = (np.array(v) for v in CORRELATED[form])
        state0 = np.tile(p0, (n, 1))
    else:
        state0 = np.tile([0.5, 0.3, 0.2], (n, 1))
    config = dynamics.DynamicsConfig(alpha=alpha, n_steps=n_steps, p0=state0[0],
                                     gamma=kwargs.get("gamma"))
    states, _ = _layout_oracle(state0, alpha, n_steps, keys, **kwargs)
    with mock.patch.object(dynamics, "CHUNK", chunk), \
            (_numpy_loop() if path == "numpy" else contextlib.nullcontext()):
        recorder = dynamics.Recorder(range(n_steps + 1))
        final = dynamics.simulate(state0, alpha, n_steps, keys, record=recorder, **kwargs)
        rec = dynamics.run_trajectory(config, keys[0])
    assert np.array_equal(final, states[-1])
    assert np.array_equal(np.stack(recorder.states), states)
    # run_trajectory has no switch: its states agree up to the switch step
    k = kwargs["switch"][0] if "switch" in kwargs else n_steps + 1
    assert np.array_equal(rec.states[:k], states[:k, 0])


@pytest.mark.parametrize("path", ["compiled", "numpy"])
# the gap event ends for member 3 alone in the independent case; in the
# correlated one it ends for members 0, 1 and 3, for member 1 through the
# gamma @ p condition alone
@pytest.mark.parametrize("case", [
    VIOLATING,
    {"d": 2, "n": 4, "n_steps": 90, "alpha": 0.2, "seed": 2, "chunk": 7,
     "gamma": None, "p0": np.array([0.7, 0.3]), "checkpoints": [0, 7, 50, 90]},
    {"d": 3, "n": 4, "n_steps": 120, "alpha": 0.1, "seed": 0, "chunk": 7,
     "gamma": np.array([[1.0, 0.6, 0.1], [0.6, 1.0, 0.3], [0.1, 0.3, 1.0]]),
     "p0": np.array([0.5, 0.3, 0.2]), "checkpoints": [0, 7, 60, 120]},
], ids=["violating", "independent", "correlated"])
def test_gap_tracker_matches_step_oracle(path, case):
    """The martingales, gap event and inclusion violations of
    `theory.run_gap_ensemble` against their definition: the states and y of
    every step rebuilt by `_layout_oracle`, xi from `decompose_steps_batch`,
    and alpha * xi summed while the half-gap conditions (on gamma @ p too
    when correlated) held at every step so far."""
    if path == "compiled":
        _require_compiled_step()
    n, d, alpha, gamma, p0 = case["n"], case["d"], case["alpha"], case["gamma"], case["p0"]
    keys = [(case["seed"], i) for i in range(n)]
    gap_of = lambda v: v[..., 0] - v[..., 1:].max(axis=-1)
    threshold = gap_of(p0) / 4.0
    if gamma is not None:
        gap_gamma = gap_of(gamma @ p0)
        threshold = 0.25 * min(gap_of(p0), gap_gamma / np.abs(gamma).sum(axis=1).max())
    with (_numpy_loop() if path == "numpy" else contextlib.nullcontext()):
        res = _run_case(case)
    states, ys = _layout_oracle(np.tile(p0, (n, 1)), alpha, case["n_steps"], keys, gamma=gamma)
    mart, max_abs = np.zeros((n, d)), np.zeros((n, d))
    alive, violations, marts = np.ones(n, dtype=bool), 0, [mart]
    for k in range(case["n_steps"]):
        xi = dynamics.decompose_steps_batch(states[k], alpha, ys[:, k], gamma)[1]
        mart = np.where(alive[:, None], mart + alpha * xi, mart)
        max_abs = np.maximum(max_abs, np.abs(mart))
        held = (max_abs <= threshold).all(axis=1)
        alive = alive & (gap_of(states[k + 1]) >= gap_of(p0) / 2.0)
        if gamma is not None:
            alive &= gap_of(states[k + 1] @ gamma.T) >= gap_gamma / 2.0
        violations += int(np.sum(held & ~alive))
        marts.append(mart)
    assert np.abs(res[2] - np.stack(marts)[case["checkpoints"]]).max() < 1e-12
    assert np.array_equal(res[3], alive)
    assert res[4] == violations


@pytest.mark.parametrize("path", ["compiled", "numpy"])
@pytest.mark.parametrize("form", ["independent", "correlated"])
def test_gap_tracking_leaves_the_trajectory_alone(path, form):
    """The states the `GapTracker` of `theory.run_gap_ensemble` records are,
    bit for bit, those a plain `Recorder` records through `dynamics.simulate`
    with the same keys and checkpoints, and so are the final states: the
    tracking reads the steps and changes none. At the rate 0.3 the gap event
    ends for some members."""
    if path == "compiled":
        _require_compiled_step()
    p0, gamma = np.array([0.5, 0.3, 0.2]), None
    if form == "correlated":
        p0, gamma = (np.array(v) for v in CORRELATED["correlated"])
    n, n_steps, alpha, seed, checkpoints = 4, 120, 0.3, 13, [0, 7, 60, 120]
    recorder = dynamics.Recorder(checkpoints)
    with mock.patch.object(dynamics, "CHUNK", 16), \
            (_numpy_loop() if path == "numpy" else contextlib.nullcontext()):
        final, tracker = theory.run_gap_ensemble(p0, alpha, n_steps, n, seed, gamma=gamma,
                                                 checkpoints=checkpoints)
        plain = dynamics.simulate(np.tile(p0, (n, 1)), alpha, n_steps,
                                  [(seed, i) for i in range(n)], gamma=gamma, record=recorder)
    assert not tracker.alive.all()
    assert np.array_equal(tracker.states, recorder.states)
    assert np.array_equal(final, plain)
