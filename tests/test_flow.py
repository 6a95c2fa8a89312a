"""Tests for the deterministic flows and the RK4 integrator."""

import numpy as np
import pytest

from simplex_stdp import flow
from simplex_stdp.simplex import InvalidInputError, loss


def test_sum_conservation_before_renormalization():
    traj = flow.integrate(flow.FlowSpec(p0=[0.2, 0.3, 0.5], horizon=5.0, dt=1e-3))
    assert traj.renorm_corrections.max() < 1e-12


def test_loss_decreases_along_flow():
    traj = flow.integrate(
        flow.FlowSpec(p0=[0.25, 0.3, 0.45], horizon=20.0, dt=1e-2, record_stride=10)
    )
    values = np.array([loss(p) for p in traj.states])
    assert np.all(np.diff(values) <= 1e-14)


def test_sum_of_squares_nondecreasing():
    # sum phi(p_i) is nondecreasing for convex phi; phi(x) = x^2 is checked
    traj = flow.integrate(
        flow.FlowSpec(p0=[0.1, 0.2, 0.3, 0.4], horizon=10.0, dt=1e-2, record_stride=10)
    )
    assert np.all(np.diff((traj.states ** 2).sum(axis=1)) >= -1e-14)


def test_ordering_and_gaps_preserved():
    traj = flow.integrate(
        flow.FlowSpec(p0=[0.5, 0.3, 0.2], horizon=10.0, dt=1e-2, record_stride=10)
    )
    # strict ordering preserved at all times
    assert np.all(traj.states[:, 0] > traj.states[:, 1])
    assert np.all(traj.states[:, 1] > traj.states[:, 2])
    # the gap to the runner-up never shrinks
    gaps = traj.states[:, 0] - traj.states[:, 1]
    assert np.all(np.diff(gaps) >= -1e-12)


def test_equal_coordinates_stay_equal():
    traj = flow.integrate(
        flow.FlowSpec(p0=[0.4, 0.3, 0.3], horizon=10.0, dt=1e-2, record_stride=10)
    )
    assert np.abs(traj.states[:, 1] - traj.states[:, 2]).max() < 1e-12


def test_flow_bound_rate_example():
    p0 = np.array([4 / 9, 1 / 3, 2 / 9])
    t = np.array([0.0, 1.0])
    b = flow.flow_bound(p0, t)
    assert abs(b[0] - 2 * (1 - 4 / 9)) < 1e-15
    assert abs(np.log(b[0] / b[1]) - 11.0 / 243.0) < 1e-12


def test_flow_bound_requires_dominant_coordinate():
    with pytest.raises(InvalidInputError):
        flow.flow_bound(np.array([0.5, 0.5]), 1.0)


def test_flow_bound_dominates_trajectory():
    p0 = [0.5, 0.3, 0.2]
    traj = flow.integrate(flow.FlowSpec(p0=p0, horizon=15.0, dt=1e-2, record_stride=10))
    err = np.abs(traj.states - np.array([1.0, 0.0, 0.0])).sum(axis=1)
    assert np.all(err <= flow.flow_bound(p0, traj.times) + 1e-12)


def test_identity_gamma_gives_replicator_flow():
    # gamma = I leaves the fitness p: the same flow
    p0 = [0.2, 0.5, 0.3]
    plain = flow.integrate(flow.FlowSpec(p0=p0, horizon=2.0, dt=1e-2))
    reduced = flow.integrate(flow.FlowSpec(p0=p0, horizon=2.0, dt=1e-2, gamma=np.eye(3)))
    assert np.array_equal(reduced.states, plain.states)


def test_correlated_flow_converges_to_dominant_vertex():
    gamma = np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]])
    spec = flow.FlowSpec(p0=[0.8, 0.1, 0.1], horizon=40.0, dt=1e-2,
                         gamma=gamma, record_stride=100)
    traj = flow.integrate(spec)
    assert traj.states[-1, 0] > 0.999


def test_correlated_flow_uses_gamma():
    # the fitness gamma @ p slows the lead's growth, so the states differ
    gamma = np.array([[1.0, 0.9], [0.9, 1.0]])
    p0 = [0.55, 0.45]
    plain = flow.integrate(flow.FlowSpec(p0=p0, horizon=5.0, dt=1e-2))
    bent = flow.integrate(flow.FlowSpec(p0=p0, horizon=5.0, dt=1e-2, gamma=gamma))
    assert np.all(bent.states[1:, 0] < plain.states[1:, 0])


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        flow.integrate(flow.FlowSpec(p0=[0.5, 0.5], horizon=1.0, dt=0.0))
    with pytest.raises(InvalidInputError):
        flow.integrate(flow.FlowSpec(p0=[0.5, 0.5], horizon=-1.0))
    for horizon in (np.inf, np.nan, 1e300):
        with pytest.raises(InvalidInputError, match="finite horizon"):
            flow.integrate(flow.FlowSpec(p0=[0.5, 0.5], horizon=horizon, dt=1e-10))
    with pytest.raises(InvalidInputError):
        flow.integrate(flow.FlowSpec(p0=[0.5, 0.5], horizon=1.0,
                                     gamma=np.array([[1.0, 0.2], [0.3, 1.0]])))
    with pytest.raises(InvalidInputError):
        flow.exact_d2(0.4, 1.0)
