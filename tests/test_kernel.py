"""Property tests of the batched stepping kernel `dynamics.simulate`."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplex_stdp import dynamics

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
