"""Tests for the stochastic multiplicative dynamics."""

import dataclasses
import itertools

import numpy as np
import pytest

from simplex_stdp import dynamics, multi
from simplex_stdp.simplex import InvalidInputError, as_probability_vector


def _draw_y(p, noise, rng):
    """Y = B + Z for one step from p, drawn from rng as the kernel draws it:
    the trigger uniform, then the noise."""
    idx = dynamics.sample_triggers(p, rng.random())
    return np.eye(p.size)[idx] + noise.sample(rng, p.size)


def _draw_correlated_signal(p, gamma, noise, rng):
    """The spike indicator S of one correlated step, drawn from rng in the
    kernel's order: trigger uniform, noise, then one uniform per coordinate."""
    idx = dynamics.sample_triggers(p[None], [rng.random()])
    noise.sample(rng, p.size)
    g = rng.random((1, p.size))
    return dynamics.correlated_signals(idx, g, gamma)[0]


def _recorded(p0, alpha, n_steps, key, switch=None):
    """The states of a one-row `simulate` run on stream key after each of
    its n_steps steps, step 0 included."""
    recorder = dynamics.Recorder(range(n_steps + 1))
    dynamics.simulate(np.asarray(p0, dtype=float)[None], alpha, n_steps, [key], record=recorder,
                      switch=switch)
    return np.concatenate(recorder.states)


def _weight_rule(lam, w0, alpha, n_steps, key):
    """The weight rule w <- w (1 + alpha (B + Z)), B drawn from
    p = lam * w / (lam . w), on the draws of stream key in step order
    (`dynamics.Streams`): per step a trigger uniform, then the noise. Returns
    the probabilities after each step, step 0 included."""
    rng = dynamics.stream_for(key)
    draws = [(rng.random(), rng.uniform(-1.0, 1.0, w0.size)) for _ in range(n_steps)]
    w, states = w0, [dynamics.probabilities(lam, w0)]
    for u, z in draws:
        idx = dynamics.sample_triggers(states[-1], u)
        w = w * (1.0 + alpha * (np.eye(w.size)[idx] + z))
        states.append(dynamics.probabilities(lam, w))
    return np.array(states)


def test_step_probabilities_preserves_zeros_and_sum():
    for p in _recorded([0.0, 0.4, 0.6, 0.0], 0.05, 100, 0):
        assert p[0] == 0.0 and p[3] == 0.0
        assert abs(p.sum() - 1.0) < 1e-14


def test_simplex_drift_stays_small_over_many_steps():
    p0 = np.random.default_rng(1).dirichlet(np.ones(3))
    p = dynamics.simulate(p0[None], 0.01, 10000, [1])[0]
    assert abs(p.sum() - 1.0) < 1e-10


def test_weight_and_probability_updates_agree():
    # pushing the same draws through weights must induce the probability rule
    lam = np.array([10.0, 7.5, 5.0])
    w0 = np.array([1.0, 2.0, 0.5])
    p = _recorded(dynamics.probabilities(lam, w0), 0.01, 2000, 2)
    assert np.abs(_weight_rule(lam, w0, 0.01, 2000, 2) - p).max() < 1e-11


def test_step_weights_rejects_destructive_rates():
    for alpha in (0.6, -0.1):
        with pytest.raises(InvalidInputError, match="outside"):
            dynamics.simulate(np.full((1, 2), 0.5), alpha, 1, [0])


@pytest.mark.parametrize("config, match", [
    # the rate is checked first
    (dict(alpha=0.7, n_steps=-1, p0=[0.5, 0.5]), "outside"),
    (dict(alpha=0.01, n_steps=-1, p0=[0.5, 0.5]), "n_steps"),
    (dict(alpha=0.01, n_steps=10, p0=[]), "nonempty"),
    (dict(alpha=0.01, n_steps=10, p0=[0.5, 0.6]), "sum"),
    (dict(alpha=0.01, n_steps=10, p0=[1.2, -0.2]), "negative"),
    (dict(alpha=0.01, n_steps=10, p0=[[0.5, 0.5]]), "keys for a state"),
    # weights enter the single-neuron runs through the sequential scheme
    (dict(alpha=0.01, n_steps=10, lam=[1.0, 2.0], w0=[1.0, -1.0]), "nonnegative"),
    (dict(alpha=0.01, n_steps=10, lam=[1.0, 2.0], w0=[0.0, 0.0]), "positive entry"),
    (dict(alpha=0.01, n_steps=10, lam=[1.0, 2.0], w0=[1.0, np.inf]), "finite"),
    (dict(alpha=0.01, n_steps=10, lam=[1.0, 0.0], w0=[1.0, 1.0]), "strictly positive"),
    (dict(alpha=0.01, n_steps=10, lam=[1.0, 2.0, 3.0], w0=[1.0, 1.0]), r"a \(2,\) vector"),
    (dict(alpha=0.01, n_steps=10, p0=[0.5, 0.5], gamma=[[1.0, 0.2], [0.3, 1.0]]),
     "symmetric"),
    # used to pass and end in an overflow error before the first step
    (dict(alpha=0.01, n_steps=10, lam=[np.inf, 1.0], w0=[1.0, 1.0]), "intensities must be finite"),
])
def test_run_trajectory_checks_its_inputs(config, match):
    if "w0" in config:
        args = (config["lam"], config["w0"], config["alpha"], config["n_steps"])
        with pytest.raises(InvalidInputError, match=match):
            multi.sequential_run(*args, 0)
        with pytest.raises(InvalidInputError, match=match):
            multi.sequential_success_ensemble(*args, 2, 0)
        return
    config = dynamics.DynamicsConfig(**config)
    with pytest.raises(InvalidInputError, match=match):
        dynamics.run_trajectory(config, 0)
    with pytest.raises(InvalidInputError, match=match):
        dynamics.final_probabilities(config, [0, 1])


def test_probability_rows_are_taken_as_the_simplex_check_returns_them():
    p0 = np.array([[0.5, 0.5 + 2e-10], [0.25, 0.75]])
    x = dynamics.simulate(p0, 0.01, 0, [0, 1])
    assert np.array_equal(x, [as_probability_vector(p) for p in p0])
    assert not np.array_equal(x[0], p0[0])
    with pytest.raises(InvalidInputError, match="sum"):
        dynamics.simulate(np.array([[0.5, 0.6]]), 0.01, 0, [0])


def test_trigger_frequencies_match_probabilities():
    rng = np.random.default_rng(3)
    p = np.array([0.5, 0.3, 0.2])
    n = 20000
    counts = np.bincount(dynamics.sample_triggers(np.tile(p, (n, 1)), rng.random(n)), minlength=3)
    assert np.abs(counts / n - p).max() < 0.01


def test_decomposition_reconstructs_and_centers():
    rng = np.random.default_rng(4)
    noise = dynamics.NoiseModel()
    for alpha in (0.1, 0.01, 0.001):
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            y = _draw_y(p, noise, rng)
            drift, xi, theta, theta_bound, p_next = dynamics.decompose_steps_batch(
                p[None], alpha, y[None])
            num = p * (1.0 + alpha * y)
            assert np.abs(p_next[0] - num / num.sum()).max() < 1e-15
            recon = p + alpha * drift[0] - alpha * xi[0] - theta[0]
            assert np.abs(recon - p_next[0]).max() < 1e-15
            assert np.all(np.abs(theta) <= theta_bound + 1e-15)
    # xi vanishes identically when Y is replaced by its conditional mean
    p = rng.dirichlet(np.ones(4))
    xi = dynamics.decompose_steps_batch(p[None], 0.01, p[None])[1]
    assert np.abs(xi).max() < 1e-16


def test_decomposition_noise_is_conditionally_centered():
    rng = np.random.default_rng(5)
    noise = dynamics.NoiseModel()
    p = np.array([0.5, 0.3, 0.2])
    total = np.zeros(3)
    n = 50000
    for _ in range(n):
        y = _draw_y(p, noise, rng)
        total += dynamics.decompose_steps_batch(p[None], 0.01, y[None])[1][0]
    assert np.abs(total / n).max() < 0.01


def test_correlated_signal_marginals():
    rng = np.random.default_rng(6)
    gamma = np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]])
    p = np.array([0.8, 0.1, 0.1])
    noise = dynamics.NoiseModel()
    total = np.zeros(3)
    n = 50000
    for _ in range(n):
        total += _draw_correlated_signal(p, gamma, noise, rng)
    assert np.abs(total / n - gamma @ p).max() < 0.01
    # Given the trigger idx, S is the idx column of C: S_idx = 1 and the
    # other entries independent Ber(gamma[idx, j]). At d = 4, with p one-hot
    # at idx so that idx triggers, the empirical E[S_j] and E[S_j S_k] over n
    # steps must lie within 5 binomial standard errors sqrt(q (1 - q) / n) of
    # q = gamma[idx, j] and gamma[idx, j] * gamma[idx, k], j != k, both != idx.
    gamma = np.array([[1.0, 0.5, 0.1, 0.7], [0.5, 1.0, 0.3, 0.2],
                      [0.1, 0.3, 1.0, 0.6], [0.7, 0.2, 0.6, 1.0]])
    n = 10000
    for idx in range(4):
        s = np.array([_draw_correlated_signal(np.eye(4)[idx], gamma, noise, rng)
                      for _ in range(n)])
        assert np.all(s[:, idx] == 1.0)
        others = [j for j in range(4) if j != idx]
        checks = [(s[:, j], gamma[idx, j]) for j in others]
        checks += [(s[:, j] * s[:, k], gamma[idx, j] * gamma[idx, k])
                   for j, k in itertools.combinations(others, 2)]
        for hits, q in checks:
            assert abs(hits.mean() - q) <= 5.0 * np.sqrt(q * (1.0 - q) / n)


def test_correlated_identity_reduces_to_independent():
    rng = np.random.default_rng(7)
    p = np.array([0.6, 0.4])
    noise = dynamics.NoiseModel()
    for _ in range(100):
        assert _draw_correlated_signal(p, np.eye(2), noise, rng).sum() == 1.0


def test_correlation_matrix_validation():
    with pytest.raises(InvalidInputError):
        dynamics.validate_correlation(np.array([[1.0, 0.2], [0.3, 1.0]]), 2)
    with pytest.raises(InvalidInputError):
        dynamics.validate_correlation(np.array([[0.9, 0.2], [0.2, 1.0]]), 2)
    with pytest.raises(InvalidInputError):
        dynamics.validate_correlation(np.array([[1.0, 1.2], [1.2, 1.0]]), 2)
    # a valid matrix for another dimension
    with pytest.raises(InvalidInputError, match="must be 3 x 3"):
        dynamics.validate_correlation(np.eye(2), 3)
    assert np.array_equal(dynamics.validate_correlation([[1, 0], [0, 1]], 2), np.eye(2))


def test_inhomogeneous_weight_and_probability_forms_agree():
    # the weight-rule step under the intensities in force after a switch at
    # step 0 equals the probability-form step switched by the ratio
    lam, lam_next = np.array([1.0, 4.0, 2.0]), np.array([3.0, 1.0, 2.0])
    w = np.array([0.5, 1.5, 1.0])
    p = _recorded(dynamics.probabilities(lam, w), 0.01, 1, 8, switch=(0, lam_next / lam))
    assert np.abs(_weight_rule(lam_next, w, 0.01, 1, 8) - p).max() < 1e-14


def test_run_trajectory_deterministic_and_seed_sensitive():
    cfg = dynamics.DynamicsConfig(alpha=0.01, n_steps=500, p0=[0.3, 0.3, 0.4])
    a = dynamics.run_trajectory(cfg, 42)
    b = dynamics.run_trajectory(cfg, 42)
    c = dynamics.run_trajectory(cfg, 43)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_run_trajectory_record_stride():
    cfg = dynamics.DynamicsConfig(alpha=0.01, n_steps=103, p0=[0.5, 0.5], record_stride=10)
    rec = dynamics.run_trajectory(cfg, 1)
    assert rec.recorded_steps[0] == 0 and rec.recorded_steps[-1] == 103
    assert rec.states.shape == (rec.recorded_steps.size, 2)
    with pytest.raises(InvalidInputError, match="record_stride"):
        dynamics.run_trajectory(dataclasses.replace(cfg, record_stride=0), 1)
