"""Tests for the mirror-descent comparison."""

import numpy as np

from simplex_stdp import dynamics, mirror


def test_steps_stay_on_simplex_and_fix_uniform():
    p = np.full(4, 0.25)
    for step in (mirror.entropic_step, mirror.multiplicative_step):
        out = step(p, 0.1)
        assert np.allclose(out, p, atol=1e-15)
    rng = np.random.default_rng(0)
    q = rng.dirichlet(np.ones(4))
    for step in (mirror.entropic_step, mirror.multiplicative_step):
        out = step(q, 0.05)
        assert abs(out.sum() - 1.0) < 1e-14
        assert np.all(out >= 0)


def test_multiplicative_step_equals_mean_stochastic_update():
    # replacing Y by its conditional mean p in the stochastic rule gives
    # exactly the multiplicative surrogate
    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(5))
    a = 0.02
    assert np.allclose(
        mirror.multiplicative_step(p, a),
        dynamics.decompose_steps_batch(p[None], a, p[None])[4][0],
        atol=1e-16,
    )


def test_steps_increase_leading_coordinate():
    p = np.array([0.5, 0.3, 0.2])
    for step in (mirror.entropic_step, mirror.multiplicative_step):
        out = step(p, 0.1)
        assert out[0] > p[0] and out[2] < p[2]


def test_quadratic_order_gap():
    rng = np.random.default_rng(2)
    alphas = [1e-2, 1e-3, 1e-4]
    sup = np.zeros(3)
    for _ in range(50):
        p = rng.dirichlet(np.ones(3))
        sup = np.maximum(sup, mirror.order_comparison(p, alphas))
    ratios = sup[:-1] / sup[1:]
    assert np.all(ratios >= 80) and np.all(ratios <= 120)
