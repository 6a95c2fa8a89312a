"""Property tests of the batched stepping kernels: `dynamics.simulate` and
the joint multi-output loop, each compiled step against its numpy loop."""

import contextlib
import dataclasses
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplex_stdp import _kernel, cli, dynamics, multi, theory
from simplex_stdp.simplex import InvalidInputError, as_probability_vector

NOISE = dynamics.NoiseModel()
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
    form = draw(st.sampled_from(["probability", "weight", "correlated"]))
    kwargs = {}
    if form == "weight":
        state0 = np.stack([draw(positive_vector(d)) for _ in range(n)])
        kwargs["lam"] = draw(positive_vector(d, min_value=0.5))
    else:
        state0 = np.stack([draw(simplex_point(d)) for _ in range(n)])
        if form == "correlated":
            kwargs["gamma"] = draw(correlation(d))
    keys = [(draw(seeds), i) for i in range(n)]
    return state0, keys, kwargs


@SETTINGS
@given(batch_case(), alphas, steps)
def test_batch_members_equal_solo_runs(case, alpha, n_steps):
    state0, keys, kwargs = case
    batch = dynamics.simulate(state0, alpha, n_steps, keys, NOISE, **kwargs)
    for i, key in enumerate(keys):
        solo = dynamics.simulate(state0[i:i + 1], alpha, n_steps, [key], NOISE, **kwargs)
        assert np.array_equal(batch[i], solo[0])


@SETTINGS
@given(dims.flatmap(lambda d: simplex_point(d, zeros=True)), seeds, alphas, steps)
def test_zero_entries_stay_zero_and_rows_sum_to_one(p0, seed, alpha, n_steps):
    p = dynamics.simulate(np.tile(p0, (3, 1)), alpha, n_steps, [(seed, i) for i in range(3)],
                          NOISE)
    assert np.all(p[:, p0 == 0.0] == 0.0)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


@SETTINGS
@given(dims.flatmap(lambda d: st.tuples(positive_vector(d, 0.5), positive_vector(d))),
       seeds, st.floats(min_value=1e-3, max_value=0.05),
       st.integers(min_value=0, max_value=300))
def test_weight_and_probability_forms_agree(lam_w0, seed, alpha, n_steps):
    lam, w0 = lam_w0
    keys = [(seed, 0), (seed, 1)]
    w = dynamics.simulate(np.tile(w0, (2, 1)), alpha, n_steps, keys, NOISE, lam=lam)
    p = dynamics.simulate(np.tile(dynamics.probabilities(lam, w0), (2, 1)), alpha, n_steps,
                          keys, NOISE)
    assert np.abs(dynamics.probabilities(lam, w) - p).max() < 1e-11


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
@given(weight_case(), seeds, alphas, steps, st.sampled_from([2.0**40, 2.0**-40]))
def test_weight_runs_are_scale_invariant(case, seed, alpha, n_steps, scale):
    lam, w0 = case
    d, d_out = w0.shape
    keys = [(seed, j) for j in range(d_out)]
    # a short chunk makes the runs cross chunk boundaries, where weights are rescaled
    with mock.patch.object(dynamics, "CHUNK", 16):
        p = [dynamics.probabilities(lam, dynamics.simulate(w.T, alpha, n_steps, keys, NOISE,
                                                           lam=lam)) for w in (w0, w0 * scale)]
        joint = [multi.joint_final_errors(lam, w, [alpha] * d_out, n_steps, 2, seed)
                 for w in (w0, w0 * scale)]
        success = [multi.sequential_success_ensemble(lam, w[:, 0], alpha, n_steps, 3, seed)
                   for w in (w0, w0 * scale)]
    assert np.array_equal(p[0], p[1])
    assert np.array_equal(joint[0], joint[1])
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rescaling_between_chunks_prevents_overflow():
    lam = np.array([10.0, 7.5, 5.0])
    alpha, n_steps = 0.45, 3000
    keys = [(5, 0), (5, 1)]
    config = multi.MultiRunConfig(lam=lam, w0=np.ones((3, 3)), alphas=[alpha] * 3,
                                  n_steps=n_steps, record_stride=n_steps)
    # the compiled steps where the kernel loads, then the numpy steps
    for path in (contextlib.nullcontext, _numpy_loop):
        with path():
            # within one chunk the weights of both loops overflow over this horizon
            with pytest.raises(InvalidInputError):
                dynamics.simulate(np.ones((2, 3)), alpha, n_steps, keys, NOISE, lam=lam)
            with pytest.raises(InvalidInputError):
                multi.joint_run(config, 5)
            with mock.patch.object(dynamics, "CHUNK", 256):
                w = dynamics.simulate(np.ones((2, 3)), alpha, n_steps, keys, NOISE, lam=lam)
                joint = multi.joint_run(config, 5)
            assert np.all(np.isfinite(dynamics.probabilities(lam, w)))
            assert np.all(np.isfinite(joint.probabilities))


@pytest.mark.parametrize("path", ["compiled", "numpy"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_runs_stop_at_the_first_state_that_is_not_finite(path):
    """The weights of member 0 overflow at step 2020 of this run, and so
    do those of a joint run with the one column on its stream; each run
    stops there instead of stepping on to the end of its chunk, and names
    its rate flat (the joint step gets it as a column)."""
    if path == "compiled":
        _require_compiled_step()
    lam = np.array([10.0, 7.5, 5.0])
    config = multi.MultiRunConfig(lam=lam, w0=np.ones((3, 1)), alphas=[0.45], n_steps=3000)
    runs = [
        (lambda record: dynamics.simulate(np.ones((2, 3)), 0.45, 3000, [(5, 0), (5, 1)],
                                          NOISE, lam=lam, record=record), r"0\.45"),
        (lambda record: multi._joint_steps(config, [(5,)], record), r"\[0\.45\]"),
    ]
    # recorded every step, the first state that is not finite ends a segment
    for (run, rate), checkpoints in itertools.product(runs, (range(2020), range(3001))):
        recorder = dynamics.Recorder(checkpoints)
        with (_numpy_loop() if path == "numpy" else contextlib.nullcontext()):
            with pytest.raises(InvalidInputError,
                               match=r"not finite after 2020 steps \(alpha=%s too large" % rate):
                run(recorder)
        assert len(recorder.states) == 2020 and np.all(np.isfinite(recorder.states[-1]))


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
    """A batch in the probability form with gap tracking, or in the weight
    form with an intensity switch (none, at step 0, mid-chunk, on a chunk
    boundary or past the horizon), recorded at every step and, as a single
    trajectory, at a stride; independent or correlated triggers, zero
    entries, and a chunk length that makes runs cross chunk and checkpoint
    boundaries."""
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
            st.integers(1, 3).map(lambda j: j * chunk), st.just(n_steps + 1)))
        case["stride"] = draw(st.integers(1, 20))
    return case


def _run_case(case):
    with mock.patch.object(dynamics, "CHUNK", case["chunk"]):
        if "p0" in case:
            res = theory.run_gap_ensemble(case["p0"], case["alpha"], case["n_steps"], case["n"],
                                          case["seed"], gamma=case["gamma"],
                                          checkpoints=case["checkpoints"])
            return [res.final_states, res.p1_checkpoints, res.martingale_checkpoints,
                    res.theta_hat, res.ek_violations]
        keys = [(case["seed"], i) for i in range(case["n"])]
        lam = case["lam"]
        if case["switch"] is not None:
            lam = [(0, lam), (case["switch"], case["lam_switched"])]
        recorder = dynamics.Recorder(range(case["n_steps"] + 1))
        final = dynamics.simulate(case["w0"], case["alpha"], case["n_steps"], keys, NOISE,
                                  lam=lam, gamma=case["gamma"], record=recorder)
        config = dynamics.DynamicsConfig(
            alpha=case["alpha"], n_steps=case["n_steps"], lam=case["lam"], w0=case["w0"][0],
            gamma=case["gamma"], record_stride=case["stride"])
        rec = dynamics.run_trajectory(config, keys[0])
        return [final, np.stack(recorder.states), rec.states, rec.weights]


# a rate this large ends the gap event of member 3 at its first step while the
# martingales stay small, so both paths count inclusion violations
VIOLATING = {"d": 2, "n": 4, "n_steps": 100, "alpha": 0.45, "seed": 8, "chunk": 16,
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
    """A stand-in for `dynamics.Streams` whose rows draw scripted uniforms,
    u (n, s) for the triggers and v (n, s, d) for the noise: the compiled
    step reads them through the ctypes callback `next_double`, the numpy
    step through `segment`, which turns v into noise as the kernel does."""

    n_pairs = 0
    noise = NOISE

    def __init__(self, u, v):
        import ctypes

        self.u, self.v = u, v
        # any distinct nonzero address: the callback, not the kernel, reads it
        self.addresses = np.zeros((len(u), 3), dtype=np.uintp)
        self.addresses[:, :2] = np.arange(1, 2 * len(u) + 1).reshape(-1, 2)
        draws = {2 * i + 1: iter(u[i]) for i in range(len(u))}
        draws.update({2 * i + 2: iter(v[i].ravel()) for i in range(len(u))})
        self.callback = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(
            lambda address: next(draws[address]))
        self.next_double = ctypes.cast(self.callback, ctypes.c_void_p).value

    def segment(self, s):
        lo = -self.noise.half_width
        return self.u[:, :s], lo + (self.noise.half_width - lo) * self.v[:, :s], None


def test_joint_step_caps_triggers_at_the_last_positive_probability():
    """The probabilities of w sum to 1 - 2^-53 before its trailing zero, so
    u = 1 - 2^-53 lies at or above every cumulative sum: both joint steps
    must cap the trigger at the last positive entry, not at d - 1, whose
    zero weight would take no increment."""
    _require_compiled_step()
    lam, w = np.ones(4), np.array([[16.0, 4.0, 4.0, 0.0]])
    u = np.nextafter(1.0, 0.0)
    assert np.cumsum(dynamics.probabilities(lam, w), axis=1)[0, 2] == u
    alpha = np.array([[0.1]])
    finals = []
    for step in (_kernel.joint, multi._joint_step):
        x = w.copy()
        # noise uniforms of 1/2 are zero noise
        streams = _ScriptedStreams(np.array([[u]]), np.full((1, 1, 4), 0.5))
        step(x, alpha, streams, None, [lam], None, None)(0, 1, 0)
        finals.append(x)
    expected = w + 0.1 * w * np.array([0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(finals[0], expected) and np.array_equal(finals[1], expected)


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


def test_no_compiler_gives_identical_outputs(fresh_loader, tmp_path, monkeypatch):
    if _kernel.compiler() is None:
        pytest.skip("no C compiler on PATH")
    runs = [
        ["thm22-verify", "--set", "n_traj=6", "--set", "n_steps=3000",
         "--set", "checkpoints=[0,1000,3000]"],
        ["thm-corr-verify", "--set", "n_traj=4", "--set", "n_steps=2000",
         "--set", "checkpoints=[0,2000]"],
        ["alg2-verify", "--set", "alpha=0.05", "--set", "n_seeds=6"],
        ["fig2-ensemble", "--set", "n_traj=5", "--set", "n_steps=300"],
        ["fig2-trajectories", "--set", "n_steps=200", "--set", "grid_step=0.1"],
        ["priming", "--set", "settle_steps=2000", "--set", "n_traj=6"],
        ["fig3-algorithm1", "--set", "n_steps=500"],
        ["correlated-figure", "--set", "n_steps=300", "--set", "n_traj=6",
         "--set", "grid_step=0.1"],
        ["spiking-validate", "--set", "n_events=[2000,1000]", "--set", "tolerance=0.05"],
    ]
    outputs = {}
    for side in ("compiled", "numpy"):
        if side == "numpy":
            monkeypatch.setattr(_kernel, "compiler", lambda: None)
            _kernel.library.cache_clear()
            assert _kernel.library() is None
        else:
            assert _kernel.library() is not None
        for args in runs:
            assert cli.main(args + ["--seed", "5", "--out", str(tmp_path / side)]) == 0
        # manifest.json included: it holds no run time
        outputs[side] = {
            p.relative_to(tmp_path / side): p.read_bytes()
            for p in sorted((tmp_path / side).rglob("*")) if p.is_file()
        }
    assert outputs["compiled"] == outputs["numpy"]


def test_compiled_runs_hold_no_chunk_of_draws():
    """Peak traced memory of compiled runs over two chunks stays far below
    one chunk of pre-drawn randomness (n x CHUNK x (1 + d + pairs) doubles,
    315 MB for the first run): the step draws as it steps."""
    _require_compiled_step()
    n_steps = 2 * dynamics.CHUNK
    gamma = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.0], [0.1, 0.0, 1.0]])
    lam = np.array([3.0, 2.0, 1.0])

    def gap_run(n, p0, gamma=None, gap_gamma=0.0):
        tracker = dynamics.GapTracker(n, p0.size, 1e-3, 0.1, 0.5, [0, n_steps // 3, n_steps],
                                      gap_gamma)
        dynamics.simulate(np.tile(p0, (n, 1)), 1e-3, n_steps, [(1, i) for i in range(n)],
                          NOISE, gamma=gamma, record=tracker)

    runs = [
        lambda: gap_run(200, np.array([0.6, 0.4])),
        lambda: gap_run(50, np.array([0.5, 0.3, 0.2]), gamma, 0.05),
        lambda: dynamics.simulate(np.ones((50, 3)), 1e-3, n_steps, [(2, i) for i in range(50)],
                                  NOISE, lam=[(0, lam), (dynamics.CHUNK + 1000, lam[::-1])]),
    ]
    for run in runs:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def _draw_chunk(rngs, m, d, n_pairs):
    """The stream layout, drawn ahead: per stream m trigger uniforms, then
    (m, d) noise values, then (m, n_pairs) pair uniforms."""
    u, z, gu = np.empty((len(rngs), m)), np.empty((len(rngs), m, d)), []
    for i, rng in enumerate(rngs):
        u[i] = rng.random(m)
        z[i] = rng.uniform(-NOISE.half_width, NOISE.half_width, (m, d))
        gu.append(rng.random((m, n_pairs)))
    return u, z, np.stack(gu)


def _layout_oracle(state0, alpha, n_steps, keys, lam=None, gamma=None):
    """A per-step loop over chunks of `dynamics.CHUNK` steps from
    `_draw_chunk`; returns the probabilities after every step (n_steps + 1,
    n, d) and every y (n, n_steps, d)."""
    x = np.array(state0, dtype=float)
    n, d = x.shape
    rngs = [dynamics.stream_for(key) for key in keys]
    top = d - 1 - np.argmax(x[:, ::-1] > 0, axis=1)
    p_of = (lambda w: w) if lam is None else (lambda w: dynamics.probabilities(lam, w))
    states, ys = [p_of(x)], []
    k = 0
    while k < n_steps:
        m = min(dynamics.CHUNK, n_steps - k)
        u, z, gu = _draw_chunk(rngs, m, d, 0 if gamma is None else d * (d - 1) // 2)
        for t in range(m):
            p = p_of(x)
            idx = dynamics.sample_triggers(p, u[:, t], top)
            sig = np.eye(d)[idx] if gamma is None else dynamics.correlated_signals(
                idx, gu[:, t], gamma)
            ys.append(sig + z[:, t])
            x = x * (1.0 + alpha * ys[-1])
            if lam is None:
                x = x / x.sum(axis=1, keepdims=True)
            states.append(p_of(x))
        k += m
    return np.stack(states), np.stack(ys, axis=1)


@pytest.mark.parametrize("path", ["compiled", "numpy"])
@pytest.mark.parametrize("chunk", [1, 7, 16])
@pytest.mark.parametrize("form", ["probability", "correlated", "weight"])
def test_draws_follow_the_stream_layout(path, chunk, form):
    """simulate and run_trajectory read each chunk's draws in the layout
    of `dynamics.Streams`, checked against draws made ahead per chunk."""
    if path == "compiled":
        _require_compiled_step()
    n, n_steps, alpha = 3, 40, 0.3
    keys = [(11, i) for i in range(n)]
    kwargs = {}
    if form == "weight":
        state0 = np.array([[1.0, 2.0, 0.5], [3.0, 1.0, 1.0], [0.2, 0.2, 4.0]])
        kwargs["lam"] = np.array([3.0, 1.0, 2.0])
        config = dynamics.DynamicsConfig(alpha=alpha, n_steps=n_steps, lam=kwargs["lam"],
                                         w0=state0[0])
    else:
        p0 = np.array([0.5, 0.3, 0.2])
        state0 = np.tile(p0, (n, 1))
        if form == "correlated":
            kwargs["gamma"] = np.array([[1.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.0]])
        config = dynamics.DynamicsConfig(alpha=alpha, n_steps=n_steps, p0=p0,
                                         gamma=kwargs.get("gamma"))
    p_of = (lambda w: w) if form != "weight" else (
        lambda w: dynamics.probabilities(kwargs["lam"], w))
    with mock.patch.object(dynamics, "CHUNK", chunk), \
            (_numpy_loop() if path == "numpy" else contextlib.nullcontext()):
        states, _ = _layout_oracle(state0, alpha, n_steps, keys, **kwargs)
        recorder = dynamics.Recorder(range(n_steps + 1))
        final = dynamics.simulate(state0, alpha, n_steps, keys, NOISE, record=recorder, **kwargs)
        rec = dynamics.run_trajectory(config, keys[0])
    assert np.array_equal(p_of(final), states[-1])
    assert np.array_equal(p_of(np.stack(recorder.states)), states)
    assert np.array_equal(rec.states, states[:, 0])


@pytest.mark.parametrize("path", ["compiled", "numpy"])
# the gap event ends for two members in the independent case; in the
# correlated one the gamma @ p condition alone ends it for member 1
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
    with mock.patch.object(dynamics, "CHUNK", case["chunk"]), \
            (_numpy_loop() if path == "numpy" else contextlib.nullcontext()):
        res = _run_case(case)
        states, ys = _layout_oracle(np.tile(p0, (n, 1)), alpha, case["n_steps"], keys,
                                    gamma=gamma)
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
    assert np.abs(res[2] - np.stack(marts, axis=-1)[:, :, case["checkpoints"]]).max() < 1e-12
    assert np.array_equal(res[3], alive)
    assert res[4] == violations
