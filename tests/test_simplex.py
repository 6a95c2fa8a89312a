"""Tests for the simplex primitives and the cubic-quartic potential."""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from simplex_stdp import simplex


def finite_difference_gradient(f, p, h=1e-6):
    g = np.zeros(p.size)
    for i in range(p.size):
        e = np.zeros(p.size)
        e[i] = h
        g[i] = (f(p + e) - f(p - e)) / (2 * h)
    return g


def finite_difference_hessian(p, h=1e-5):
    d = p.size
    out = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        out[i] = (simplex.loss_gradient(p + e) - simplex.loss_gradient(p - e)) / (2 * h)
    return out


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for _ in range(20):
        p = rng.dirichlet(np.ones(rng.integers(2, 6)))
        fd = finite_difference_gradient(simplex.loss, p)
        assert np.abs(simplex.loss_gradient(p) - fd).max() < 1e-8


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(102)
    for _ in range(10):
        p = rng.dirichlet(np.ones(4))
        fd = finite_difference_hessian(p)
        assert np.abs(simplex.loss_hessian(p) - fd).max() < 1e-7


def test_replicator_field_is_negative_gradient():
    rng = np.random.default_rng(103)
    p = rng.dirichlet(np.ones(5))
    assert np.allclose(simplex.replicator_field(p), -simplex.loss_gradient(p), atol=1e-15)


def test_critical_points_d3():
    cps = simplex.critical_points(3)
    assert len(cps) == 7
    for cp in cps:
        # on the simplex the projected gradient vanishes: all active
        # coordinates share one multiplier and inactive ones have zero gradient
        g = simplex.loss_gradient(cp.point)
        active = cp.point > 0
        assert np.abs(g[~active]).max() < 1e-14 if (~active).any() else True
        assert np.abs(g[active] - g[active].mean()).max() < 1e-14
        assert abs(simplex.loss(cp.point) - cp.value) < 1e-12
    minima = [cp for cp in cps if cp.kind == "minimum"]
    assert len(minima) == 3 and all(cp.is_vertex for cp in minima)
    values = sorted(set(round(cp.value, 14) for cp in cps))
    assert np.allclose(values, [-1 / 12, -1 / 48, -1 / 108], atol=1e-12)


def test_critical_point_count_grows_as_two_to_d_minus_one():
    for d in (1, 2, 4):
        assert len(simplex.critical_points(d)) == 2 ** d - 1


def test_hessian_classification_saddle_directions():
    # saddles have a strictly negative in-face curvature; the barycentre is
    # a maximum, which test_critical_point_kinds_match_curvature_signs covers
    for cp in simplex.critical_points(3):
        h = simplex.loss_hessian(cp.point)
        if cp.kind == "saddle":
            i, j = cp.support[:2]
            v = np.zeros(3)
            v[i], v[j] = 1.0, -1.0
            assert v @ h @ v < 0


def _curvature(p, v, h=1e-3):
    """Second difference of `loss` along v at p: the quartic's curvature up
    to about 1e-6, computed without `loss_hessian`."""
    return (simplex.loss(p + h * v) - 2.0 * simplex.loss(p) + simplex.loss(p - h * v)) / h ** 2


def _check_kinds(d):
    """Assert that each critical point's kind is the one its curvature
    signs give, along tangent e_i - e_j (i, j in the support) and outward
    e_j - p (j outside it)."""
    eye = np.eye(d)
    for cp in simplex.critical_points(d):
        tangent = [_curvature(cp.point, eye[i] - eye[j]) for i, j in combinations(cp.support, 2)]
        outward = [_curvature(cp.point, eye[j] - cp.point) for j in range(d) if j not in cp.support]
        down = bool(tangent) and all(c < 0 for c in tangent)
        up = all(c > 0 for c in outward)
        expected = ("minimum" if not tangent and up else "saddle" if down and outward and up
                    else "maximum" if down and not outward else None)
        assert expected is not None and cp.kind == expected, (d, cp.support, cp.kind)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_critical_point_kinds_match_curvature_signs(d):
    """The vertices are the minima, the full-support barycentre is the one
    maximum, and every other point is a saddle."""
    _check_kinds(d)
    kinds = {cp.support: cp.kind for cp in simplex.critical_points(d)}
    assert [s for s, kind in kinds.items() if kind == "maximum"] == [tuple(range(d))]
    assert [s for s, kind in kinds.items() if kind == "minimum"] == [(i,) for i in range(d)]
    assert list(kinds.values()).count("saddle") == 2 ** d - d - 2


def test_kind_check_fails_on_a_sign_flipped_hessian():
    hessian = simplex.loss_hessian
    with mock.patch.object(simplex, "loss_hessian", lambda p: -hessian(p)):
        for d in (2, 3, 4, 5):
            with pytest.raises(AssertionError):
                _check_kinds(d)


def test_loss_values_uniform_supports():
    for d in (1, 2, 3, 6):
        p = np.full(d, 1.0 / d)
        assert abs(simplex.loss(p) + 1.0 / (12 * d * d)) < 1e-15


def test_probabilities_from_weights():
    p = simplex.probabilities_from_weights([10, 7.5, 5], [1, 1, 1])
    assert np.allclose(p, [4 / 9, 1 / 3, 2 / 9], atol=1e-15)
    p = simplex.probabilities_from_weights([1.0, 2.0], [3.0, 0.0])
    assert p[1] == 0.0 and p[0] == 1.0


def test_probabilities_from_weights_rejects_bad_inputs():
    with pytest.raises(simplex.InvalidInputError):
        simplex.probabilities_from_weights([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(simplex.InvalidInputError):
        simplex.probabilities_from_weights([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(simplex.InvalidInputError):
        simplex.probabilities_from_weights([1.0, 1.0], [1.0, -0.5])


def test_as_probability_vector_tolerances():
    p = simplex.as_probability_vector([0.5, 0.5 + 2e-10])
    assert abs(p.sum() - 1.0) < 1e-15
    with pytest.raises(simplex.InvalidInputError):
        simplex.as_probability_vector([0.5, 0.6])
    with pytest.raises(simplex.InvalidInputError):
        simplex.as_probability_vector([1.2, -0.2])


def test_barycentric_embedding_vertices():
    x, y = simplex.barycentric_embedding(np.eye(3))
    assert np.allclose(x, [0.0, 1.0, 0.5])
    assert np.allclose(y, [0.0, 0.0, np.sqrt(3) / 2])


def test_landscape_grid_center_and_cover():
    pts, x, y, vals = simplex.landscape_grid(1.0 / 99.0)
    center = np.all(np.abs(pts - 1.0 / 3.0) < 1e-12, axis=1)
    assert center.sum() == 1
    assert abs(vals[center][0] + 1.0 / 108.0) < 1e-12
    # all embedded points inside the triangle spanned by the vertex images
    assert (y >= -1e-12).all() and (y <= np.sqrt(3) * np.minimum(x, 1 - x) + 1e-12).all()
    assert abs(vals.min() + 1.0 / 12.0) < 1e-12
