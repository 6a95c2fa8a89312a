"""Tests for the convergence constants, event tracking, and priming."""

import numpy as np
import pytest
from scipy import stats

from simplex_stdp import cli, dynamics, theory
from simplex_stdp.simplex import InvalidInputError


def test_max_alpha_figure_scale_value():
    # d=3, gap 1/9, Q=2, epsilon=0.1: the confidence branch binds
    params = theory.GapParams(p0=np.array([4 / 9, 1 / 3, 2 / 9]), epsilon=0.1)
    a = theory.max_alpha(params)
    g = 1 / 9
    expected = (g * g / 64.0) * 0.1 * (4 * g / 3 + g * g) / (256 * (1 - 4 / 9))
    assert abs(a - expected) / expected < 1e-9


def test_max_alpha_desk_scale_value():
    params = theory.GapParams(p0=np.array([0.9, 0.1]), epsilon=0.5)
    a = theory.max_alpha(params)
    expected = 0.01 * (1.6 + 0.64) * 0.5 / (256 * 0.1)
    assert abs(a - expected) / expected < 1e-9


def test_max_alpha_is_tight():
    params = theory.GapParams(p0=np.array([0.7, 0.3]), epsilon=0.3)
    a = theory.max_alpha(params)
    g, q = params.gap, dynamics.Q_BOUND
    c2 = params.epsilon * (4 * g / 2 + g * g) / (256 * (1 - 0.7))
    rhs = lambda x: g * g / (16 * q * q) * min((1 - q * x) ** 3, c2)
    assert a <= rhs(a)
    assert a * (1 + 1e-6) > rhs(a * (1 + 1e-6))


def test_error_bound_initial_value_and_rate():
    params = theory.GapParams(p0=np.array([0.9, 0.1]), epsilon=0.5)
    assert abs(theory.error_bound(params, 1e-3, 0) - 0.2) < 1e-15
    b1 = theory.error_bound(params, 1e-3, 1000)
    expected = 0.2 * np.exp(-(1e-3 / 16) * (4 * 0.8 / 2 + 0.64) * 1000)
    assert abs(b1 - expected) < 1e-15


def test_iterations_for_formula():
    params = theory.GapParams(p0=np.array([0.9, 0.1]), epsilon=0.5)
    k = theory.iterations_for(params, 1e-3, 0.1)
    manual = np.ceil(
        16 * 2 / (1e-3 * 0.8 * (4 + 2 * 0.8)) * np.log(4 * 0.1 / (0.5 * 0.1))
    )
    assert k == int(manual)
    assert theory.error_bound(params, 1e-3, k) <= 0.5 * 0.1 / 2
    # a zero rate used to end in an OverflowError
    for alpha in (0.0, -1e-3, np.nan):
        with pytest.raises(InvalidInputError):
            theory.iterations_for(params, alpha, 0.1)


def test_correlated_gap_params_worked_example():
    gamma = np.array([[1.0, 0.1, 0.1], [0.1, 1.0, 0.0], [0.1, 0.0, 1.0]])
    cp = theory.GapParams(p0=np.array([0.8, 0.1, 0.1]), gamma=gamma, epsilon=0.5)
    assert abs(cp.gap - 0.7) < 1e-12
    assert abs(cp.gap_gamma - 0.64) < 1e-12
    assert abs(cp.nu - 0.1) < 1e-15
    assert abs(cp.c_star - 8e-4) < 1e-15
    a = theory.max_alpha(cp)
    # the gap branch binds: alpha ~ c_star / 16 up to the (1 - 2 alpha)^3 factor
    assert abs(a - 8e-4 / 16) / (8e-4 / 16) < 1e-3


def test_correlated_identity_reduces_exactly():
    # gamma None means independent triggers, the gamma = I case, bit for bit
    p0 = np.array([0.85, 0.1, 0.05])
    params = theory.GapParams(p0=p0, epsilon=0.4)
    ident = theory.GapParams(p0=p0, gamma=np.eye(3), epsilon=0.4)
    a = theory.max_alpha(params)
    assert theory.max_alpha(ident) == a
    ks = np.arange(5) * 100
    assert np.array_equal(theory.error_bound(params, a, ks), theory.error_bound(ident, a, ks))
    assert theory.iterations_for(params, a, 0.2) == theory.iterations_for(ident, a, 0.2)
    assert params.martingale_threshold == ident.martingale_threshold == params.gap / 4


def test_correlated_gap_params_reject_excessive_correlation():
    gamma = np.array([[1.0, 0.9], [0.9, 1.0]])
    with pytest.raises(InvalidInputError):
        theory.max_alpha(theory.GapParams(p0=np.array([0.6, 0.4]), gamma=gamma, epsilon=0.1))


def test_gap_params_refuse_a_dead_gap_event():
    # gamma @ p0 = (0.4, 0.6, 0.6): the gap event would end before the first step
    p0 = np.array([0.4, 0.35, 0.25])
    gamma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    with pytest.raises(InvalidInputError, match="gamma @ p0"):
        theory.GapParams(p0=p0, gamma=gamma)
    with pytest.raises(InvalidInputError, match="gamma @ p0"):
        theory.run_gap_ensemble(p0, 1e-3, 10, 2, 0, gamma=gamma)


def test_gap_event_probability_check_can_fail_on_its_own():
    """At p0 = (0.55, 0.45) the rate 0.05, far above max_alpha (1.4e-7)
    but below 1/Q, ends the gap event of most members within 5000 steps:
    the empirical gap-event probability (0.37, 0.445 and 0.485 for seeds 0
    to 2) falls under the floor of thm22-verify at epsilon = 0.5, while the
    error bound holds and no inclusion violation occurs. At thm22's own
    p0 = (0.9, 0.1) it stays at or above 0.985 even at the rate 0.45."""
    cfg = cli.DEFAULTS["thm22-verify"]
    p0, alpha, n_steps = [0.55, 0.45], 0.05, 5000
    params = theory.GapParams(p0=np.array(p0), epsilon=cfg["epsilon"])
    floor = 1.0 - cfg["epsilon"] / 2.0 - cli.THM22_PROBABILITY_SLACK
    for seed in range(3):
        _, tracker = theory.run_gap_ensemble(p0, alpha, n_steps, 200, seed,
                                             checkpoints=[0, n_steps])
        report = theory.verification_report(params, alpha, tracker)
        assert report["empirical_gap_event_probability"] < floor
        assert report["inclusion_violations"] == 0
        assert all(row["on_event_mean_l1_error"] <= cli.BOUND_SLACK * row["bound"]
                   for row in report["checkpoints"])


def test_martingale_has_zero_mean():
    p0 = [0.9, 0.1]
    params = theory.GapParams(p0=np.array(p0), epsilon=0.5)
    alpha = theory.max_alpha(params)
    k = 5000
    _, tracker = theory.run_gap_ensemble(p0, alpha, k, 200, 123, checkpoints=[k])
    m = tracker.martingales[0, :, 0]
    assert abs(m.mean()) <= 4 * m.std() / np.sqrt(m.size) + 1e-12


def test_ensemble_members_reproducible_in_isolation():
    p0 = [0.9, 0.1]
    final, _ = theory.run_gap_ensemble(p0, 1e-3, 1000, 3, 9, checkpoints=[1000])
    cfg = dynamics.DynamicsConfig(alpha=1e-3, n_steps=1000, p0=p0, record_stride=1000)
    for i in range(3):
        solo = dynamics.run_trajectory(cfg, (9, i))
        assert np.abs(solo.states[-1] - final[i]).max() < 1e-15


def test_report_measures_errors_below_double_resolution():
    # p_2 falls far below 2^-53, so 1 - p_1 rounds to exactly 0 while the
    # error ||p - e_1||_1 = 2 p_2 is still positive
    p0 = [0.9, 0.1]
    params = theory.GapParams(p0=np.array(p0), epsilon=0.5)
    _, tracker = theory.run_gap_ensemble(p0, 0.1, 1000, 8, 4, checkpoints=[0, 1000])
    assert np.all(tracker.states[1][:, 0] == 1.0) and tracker.alive.all()
    row = theory.verification_report(params, 0.1, tracker)["checkpoints"][1]
    assert row["on_event_mean_l1_error"] == 2.0 * tracker.states[1][:, 1].sum() / 8
    assert 0.0 < row["on_event_mean_l1_error"] <= row["bound"]


def test_priming_delta_closed_form():
    assert abs(theory.priming_delta_max([10.0, 5.0], [5.0, 10.0]) - 0.2) < 1e-15


@pytest.mark.parametrize("lam_first, lam_second", [
    ([1.0], [1.0]),  # used to end in numpy's ValueError on an empty maximum
    ([1.0, 2.0], [1.0, 2.0, 3.0]),  # used to return a number
    ([1.0, 2.0], [1.0, 0.0]),
    ([1.0, np.nan], [1.0, 2.0]),
])
def test_priming_delta_refuses_mismatched_or_invalid_intensities(lam_first, lam_second):
    with pytest.raises(InvalidInputError):
        theory.priming_delta_max(lam_first, lam_second)


def test_priming_preconditions():
    with pytest.raises(InvalidInputError, match="first intensities"):
        theory.priming_experiment([5.0, 10.0], [5.0, 10.0], np.ones(2),
                                  1e-3, 0, 10, 2, 0)
    # valid first intensities; the second neither match them nor favour the
    # last coordinate
    with pytest.raises(InvalidInputError, match="second intensities"):
        theory.priming_experiment([10.0, 5.0], [10.0, 6.0], np.ones(2),
                                  1e-3, 0, 10, 2, 0)


def test_priming_identical_intensities_is_noop():
    lam = np.array([10.0, 5.0])
    # same intensities before and after the switch: the switch step cannot
    # matter; distributions of the final state must agree across k_switch
    pa, _ = theory.priming_experiment(lam, lam * 0.5, np.ones(2), 5e-3, 0, 4000, 60, 3)
    pb, _ = theory.priming_experiment(lam, lam * 0.5, np.ones(2), 5e-3, 2000, 4000, 60, 4)
    ks = stats.ks_2samp(pa[:, 0], pb[:, 0])
    assert ks.pvalue > 0.01


def test_verification_report_shape():
    p0 = [0.9, 0.1]
    params = theory.GapParams(p0=np.array(p0), epsilon=0.5)
    alpha = theory.max_alpha(params)
    _, tracker = theory.run_gap_ensemble(p0, alpha, 2000, 20, 5, checkpoints=[0, 2000])
    rep = theory.verification_report(params, alpha, tracker)
    assert rep["checkpoints"][0]["k"] == 0
    assert rep["checkpoints"][0]["bound"] == pytest.approx(0.2)
    assert 0.0 <= rep["empirical_gap_event_probability"] <= 1.0
