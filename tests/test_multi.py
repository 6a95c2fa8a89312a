"""Tests for the multi-output deflation schemes."""

import dataclasses

import numpy as np
import pytest

from simplex_stdp import _kernel, dynamics, multi
from simplex_stdp.simplex import InvalidInputError


def test_cosine_projection():
    w = np.array([0.1, 3.0, 4.0, 2.0])
    out = multi.cosine_projection(w)
    assert out[2] == np.linalg.norm(w)
    assert np.count_nonzero(out) == 1
    # ties resolve to the lowest index
    tied = multi.cosine_projection(np.array([2.0, 2.0, 1.0]))
    assert tied[0] > 0 and tied[1] == 0


def test_frobenius_half_error_values():
    eye = np.eye(3)
    assert multi.frobenius_half_error(eye) == 0.0
    dup = eye.copy()
    dup[:, 1] = eye[:, 0]  # column 2 duplicates column 1 -> one misaligned output
    assert multi.frobenius_half_error(dup) == 1.0
    swapped = eye[:, [1, 0, 2]]
    assert multi.frobenius_half_error(swapped) == 2.0


def test_admissible_delta_and_weight_bound():
    lam = np.array([10.0, 7.5, 5.0])
    cap = multi.admissible_delta(lam)
    assert abs(cap - (0.5 / 1.5)) < 1e-15
    # with 1 - p_1 < delta every other weight is at most
    # w_1 delta / (kappa (1 - delta)); the cap is where that bound reaches w_1
    kappa = lam.min() / lam.max()
    assert abs(cap / (kappa * (1.0 - cap)) - 1.0) < 1e-15
    delta = 0.25
    assert delta / (kappa * (1.0 - delta)) < 1.0


def test_deflated_starts_put_the_leading_coordinate_first():
    """Column 0 starts at lam * w0 normalised; column 1 at the same with the
    first column's axis zeroed, its lead moved first; the last column is no
    subproblem. A column with no weight left is refused."""
    starts = multi.deflated_starts([10.0, 7.5, 5.0], [1.0, 1.0, 1.0])
    assert len(starts) == 2
    assert np.allclose(starts[0], [4 / 9, 1 / 3, 2 / 9], rtol=0, atol=1e-15)
    assert np.allclose(starts[1], [0.6, 0.0, 0.4], rtol=0, atol=1e-15)
    # the lead of (0.2, 0.3, 0.5) is the third coordinate
    assert np.allclose(multi.deflated_starts([1.0, 1.0, 1.0], [0.2, 0.3, 0.5])[0],
                       [0.5, 0.2, 0.3], rtol=0, atol=1e-15)
    with pytest.raises(InvalidInputError, match="no weight left"):
        multi.deflated_starts([1.0, 1.0, 1.0], [1.0, 0.0, 0.0])


def test_required_iterations_formula():
    k = multi.required_iterations(3, 1e-3, 1 / 9, 0.2, 0.25)
    manual = int(np.ceil(16 * 3 / (1e-3 * (1 / 9) * (4 + 3 / 9)) * np.log(4 / 0.05)))
    assert k == manual
    # a zero rate or gap used to divide by zero
    for alpha, gap in ((0.0, 0.1), (-1e-3, 0.1), (1e-3, 0.0), (1e-3, np.nan), (1e-3, np.inf)):
        with pytest.raises(InvalidInputError):
            multi.required_iterations(3, alpha, gap, 0.2, 0.25)


def test_config_validation():
    # a joint run's inputs are checked by `_joint_steps` and `dynamics._drive`
    base = multi.MultiRunConfig(lam=[10.0, 5.0], w0=np.ones((2, 2)), alphas=[0.01, 0.01],
                                n_steps=10)
    for change, match in [
        (dict(alphas=[0.6, 0.1]), "outside"),
        (dict(alphas=[0.01]), "one rate per output column"),
        (dict(w0=np.ones(2)), "one rate per output column"),
        (dict(w0=-np.ones((2, 2))), "nonnegative"),
        (dict(w0=np.array([[1.0, 0.0], [1.0, 0.0]])), "positive entry"),
        (dict(w0=np.ones((3, 2))), r"a \(3,\) vector"),
        (dict(lam=[10.0, 0.0]), "strictly positive"),
        (dict(n_steps=-1), "n_steps"),
    ]:
        config = dataclasses.replace(base, **change)
        with pytest.raises(InvalidInputError, match=match):
            multi.joint_run(config, 0)
        with pytest.raises(InvalidInputError, match=match):
            multi.joint_final_errors(config.lam, config.w0, config.alphas, config.n_steps, 2, 0)


@pytest.mark.parametrize("w0, alpha, match", [
    ([1.0, 1.0, -1.0], 0.05, "nonnegative"),
    # the second column starts with the first column's axis zeroed: no weight
    ([1.0, 0.0, 0.0], 0.05, "positive entry"),
    ([1.0, 1.0, 1.0], 0.0, "outside"),
])
def test_sequential_runs_are_checked(w0, alpha, match):
    lam = np.array([10.0, 7.5, 5.0])
    with pytest.raises(InvalidInputError, match=match):
        multi.sequential_run(lam, w0, alpha, 10, 0)
    with pytest.raises(InvalidInputError, match=match):
        multi.sequential_success_ensemble(lam, w0, alpha, 10, 2, 0)


@pytest.mark.parametrize("path", ["compiled", "numpy"])
def test_a_vertex_column_is_not_moved_by_the_rule(monkeypatch, path):
    # the sequential scheme does not step a column whose rows are all
    # vertices; stepping them returns them unchanged, bit for bit
    if path == "numpy":
        monkeypatch.setattr(_kernel, "library", lambda: None)
    elif _kernel.library() is None:
        pytest.skip("compiled step not available")
    p0 = np.eye(3)[[2, 0, 1, 2]]
    assert np.array_equal(dynamics.simulate(p0, 0.4, 5000, [(9, s, 2) for s in range(4)]), p0)


def test_joint_increments_orthogonal_to_lower_columns(monkeypatch):
    cfg = multi.MultiRunConfig(
        lam=[10.0, 7.5, 5.0],
        w0=np.ones((3, 3)),
        alphas=[1e-3, 0.75e-3, 0.5e-3],
        n_steps=2000,
        record_stride=2000,
    )
    violation = 0.0
    calls = 0
    deflated_increments = multi._deflated_increments

    def spy(w, alpha, y):
        # |<increment of column j, start-of-step column i>| over their norms, i < j
        nonlocal violation, calls
        inc = deflated_increments(w, alpha, y)
        dots = np.abs(inc[0] @ w[0].T)
        scale = np.outer(np.linalg.norm(inc[0], axis=-1), np.linalg.norm(w[0], axis=-1))
        violation = max(violation, np.tril(dots / np.maximum(scale, 1e-300), -1).max())
        calls += 1
        return inc

    monkeypatch.setattr(multi, "_deflated_increments", spy)
    # the spy sees the numpy step; test_kernel checks the compiled one against it
    monkeypatch.setattr(_kernel, "library", lambda: None)
    rec = multi.joint_run(cfg, 11)
    assert calls == 2000
    assert violation < 1e-10
    assert rec.probabilities[-1].sum(axis=0) == pytest.approx(np.ones(3))


def test_joint_first_column_matches_single_neuron_run():
    # column 0 gets no deflation, so it steps the weight rule, and its
    # probabilities must reproduce the single-neuron probability run driven
    # by the same stream
    lam = np.array([10.0, 7.5, 5.0])
    cfg = multi.MultiRunConfig(
        lam=lam, w0=np.ones((3, 3)), alphas=[1e-3] * 3, n_steps=1500, record_stride=1500
    )
    rec = multi.joint_run(cfg, 21)
    single_cfg = dynamics.DynamicsConfig(
        alpha=1e-3, n_steps=1500, p0=dynamics.probabilities(lam, np.ones(3)), record_stride=1500
    )
    single = dynamics.run_trajectory(single_cfg, (21, 0))
    assert np.abs(rec.probabilities[-1][:, 0] - single.states[-1]).max() < 1e-12


def test_sequential_run_produces_basis_columns():
    lam = np.array([10.0, 7.5, 5.0])
    w_star, p_star = multi.sequential_run(lam, np.ones(3), 1e-3, 20000, 3)
    for j in range(3):
        assert np.count_nonzero(p_star[:, j]) == 1
        assert p_star[:, j].max() == 1.0
    # columns land on distinct axes
    assert len(set(int(np.argmax(p_star[:, j])) for j in range(3))) == 3


def test_sequential_success_ensemble_small():
    lam = np.array([10.0, 7.5, 5.0])
    success = multi.sequential_success_ensemble(lam, np.ones(3), 1e-3, 20000, 8, seed=13)
    assert success.shape == (8,)
    assert success.mean() >= 0.5
