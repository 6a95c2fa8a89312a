"""Tests for the stochastic multiplicative dynamics."""

import numpy as np
import pytest

from simplex_stdp import dynamics
from simplex_stdp.simplex import InvalidInputError, probabilities_from_weights


def _draw_y(p, noise, rng):
    """Y = B + Z for one step from p, drawn from rng as the kernel draws it:
    the trigger uniform, then the noise."""
    idx = dynamics.sample_triggers(p, rng.random())
    return np.eye(p.size)[idx] + noise.sample(rng, p.size)


def _draw_correlated_signal(p, gamma, noise, rng):
    """The spike indicator S of one correlated step, drawn from rng in the
    kernel's order: trigger uniform, noise, then one uniform per pair."""
    idx = dynamics.sample_triggers(p[None], [rng.random()])
    noise.sample(rng, p.size)
    gu = rng.random((1, p.size * (p.size - 1) // 2))
    return dynamics.correlated_signals(idx, gu, gamma)[0]


def test_step_probabilities_preserves_zeros_and_sum():
    rng = np.random.default_rng(0)
    p = np.array([0.0, 0.4, 0.6, 0.0])
    for _ in range(100):
        y = _draw_y(p, dynamics.NoiseModel(), rng)
        p = dynamics.step_probabilities(p, 0.05, y)
        assert p[0] == 0.0 and p[3] == 0.0
        assert abs(p.sum() - 1.0) < 1e-14


def test_simplex_drift_stays_small_over_many_steps():
    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(3))
    noise = dynamics.NoiseModel()
    for _ in range(10000):
        y = _draw_y(p, noise, rng)
        p = dynamics.step_probabilities(p, 0.01, y)
    assert abs(p.sum() - 1.0) < 1e-10


def test_weight_and_probability_updates_agree():
    # pushing the same Y through weights must induce the probability rule
    rng = np.random.default_rng(2)
    lam = np.array([10.0, 7.5, 5.0])
    w = np.array([1.0, 2.0, 0.5])
    p = probabilities_from_weights(lam, w)
    noise = dynamics.NoiseModel()
    for _ in range(2000):
        y = _draw_y(p, noise, rng)
        w = dynamics.step_weights(w, 0.01, y)
        p = dynamics.step_probabilities(p, 0.01, y)
        assert np.abs(probabilities_from_weights(lam, w) - p).max() < 1e-11


def test_noise_model_validation():
    with pytest.raises(InvalidInputError):
        dynamics.NoiseModel(q_bound=1.0)
    with pytest.raises(InvalidInputError):
        dynamics.NoiseModel(half_width=1.5, q_bound=2.0)
    with pytest.raises(InvalidInputError):
        dynamics.NoiseModel(kind="custom-bounded")
    m = dynamics.NoiseModel(kind="custom-bounded", q_bound=3.0, half_width=2.0,
                            sampler=lambda rng, size: rng.uniform(-2, 2, size))
    z = m.sample(np.random.default_rng(0), (100,))
    assert np.abs(z).max() <= 2.0


def test_step_weights_rejects_destructive_rates():
    with pytest.raises(InvalidInputError):
        dynamics.step_weights(np.ones(2), 0.6, np.array([1.0, -2.0]))
    with pytest.raises(InvalidInputError):
        dynamics.step_weights(np.ones(2), -0.1, np.zeros(2))


def test_config_validation_lists_all_violations():
    cfg = dynamics.DynamicsConfig(alpha=0.7, n_steps=-1)
    with pytest.raises(InvalidInputError) as err:
        cfg.validated()
    msg = str(err.value)
    assert "alpha" in msg and "n_steps" in msg and "p0" in msg


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
            drift, xi, theta, theta_bound, _ = dynamics.decompose_steps_batch(
                p[None], alpha, y[None])
            p_next = dynamics.step_probabilities(p, alpha, y)
            recon = p + alpha * drift[0] - alpha * xi[0] - theta[0]
            assert np.abs(recon - p_next).max() < 1e-15
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


def test_correlated_identity_reduces_to_independent():
    rng = np.random.default_rng(7)
    p = np.array([0.6, 0.4])
    noise = dynamics.NoiseModel()
    for _ in range(100):
        assert _draw_correlated_signal(p, np.eye(2), noise, rng).sum() == 1.0


def test_correlation_matrix_validation():
    with pytest.raises(InvalidInputError):
        dynamics.validate_correlation(np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(InvalidInputError):
        dynamics.validate_correlation(np.array([[0.9, 0.2], [0.2, 1.0]]))
    with pytest.raises(InvalidInputError):
        dynamics.validate_correlation(np.array([[1.0, 1.2], [1.2, 1.0]]))


def test_inhomogeneous_weight_and_probability_forms_agree():
    # the weight-form step equals the probability-form step computed from the
    # intensities in force after the switch
    rng = np.random.default_rng(8)
    lam_next = np.array([3.0, 1.0, 2.0])
    w = np.array([0.5, 1.5, 1.0])
    noise = dynamics.NoiseModel()
    p_tilde = probabilities_from_weights(lam_next, w)
    y = _draw_y(p_tilde, noise, rng)
    w_next, p_next = dynamics.step_inhomogeneous(w, lam_next, 0.01, y)
    alt = dynamics.step_probabilities(p_tilde, 0.01, y)
    assert np.abs(p_next - alt).max() < 1e-14


def test_run_trajectory_deterministic_and_seed_sensitive():
    cfg = dynamics.DynamicsConfig(alpha=0.01, n_steps=500, p0=[0.3, 0.3, 0.4])
    a = dynamics.run_trajectory(cfg, 42)
    b = dynamics.run_trajectory(cfg, 42)
    c = dynamics.run_trajectory(cfg, 43)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    assert a.config_digest == b.config_digest


def test_run_trajectory_samples_replay_states():
    cfg = dynamics.DynamicsConfig(
        alpha=0.02, n_steps=300, p0=[0.2, 0.5, 0.3], record_samples=True
    )
    rec = dynamics.run_trajectory(cfg, 9)
    p = rec.states[0].copy()
    for k in range(cfg.n_steps):
        p = dynamics.step_probabilities(p, cfg.alpha, rec.y_samples[k])
    assert np.abs(p - rec.states[-1]).max() < 1e-12


def test_run_trajectory_record_stride():
    cfg = dynamics.DynamicsConfig(alpha=0.01, n_steps=103, p0=[0.5, 0.5], record_stride=10)
    rec = dynamics.run_trajectory(cfg, 1)
    assert rec.recorded_steps[0] == 0 and rec.recorded_steps[-1] == 103
    assert rec.states.shape == (rec.recorded_steps.size, 2)
