"""Probability-simplex primitives: weight-to-probability maps, the cubic-quartic
potential whose negative gradient is the replicator field, and the enumeration
of its critical points on the simplex."""

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

# |sum(p) - 1| below this is treated as exactly on the simplex.
SUM_TOL = 1e-12
# Accumulated drift up to this magnitude is silently renormalized; anything
# larger is rejected as a genuinely invalid input.
RENORM_TOL = 1e-9


class InvalidInputError(ValueError):
    """Raised when a vector fails simplex / positivity validation."""


def as_probability_vector(p, renormalize=True):
    """Validate (and possibly renormalize) a vector as a simplex point.

    Entries must be nonnegative and the total must be within RENORM_TOL of 1;
    totals within SUM_TOL are accepted as-is, larger (but tolerable) drift is
    fixed by dividing by the sum.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidInputError("expected a nonempty 1-d vector, got shape %s" % (p.shape,))
    if np.any(p < 0):
        raise InvalidInputError("negative entries: %s" % p[p < 0])
    s = float(p.sum())
    if abs(s - 1.0) <= SUM_TOL:
        return p
    if renormalize and abs(s - 1.0) <= RENORM_TOL:
        return p / s
    raise InvalidInputError("entries sum to %.17g, not 1 (tolerance %g)" % (s, RENORM_TOL))


def validate_intensities(lam):
    """Check that an intensity vector is 1-d with strictly positive entries."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise InvalidInputError("intensities must be a nonempty 1-d vector")
    if np.any(lam <= 0):
        raise InvalidInputError("intensities must be strictly positive, got %s" % lam)
    return lam


def validate_weights(w):
    """Check that a weight vector is 1-d, nonnegative, and not identically zero."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidInputError("weights must be a nonempty 1-d vector")
    if np.any(w < 0):
        raise InvalidInputError("weights must be nonnegative, got %s" % w)
    if not np.any(w > 0):
        raise InvalidInputError("weights must have at least one positive entry")
    return w


def recorded_steps(n, stride):
    """The steps 0, stride, 2 stride, ... up to n that a run records, plus n."""
    return np.unique(np.append(np.arange(0, n + 1, stride), n))


def probabilities_from_weights(lam, w):
    """Map intensities and synaptic weights to trigger probabilities
    p_i = lam_i w_i / sum_j lam_j w_j."""
    lam = validate_intensities(lam)
    w = validate_weights(w)
    if lam.shape != w.shape:
        raise InvalidInputError("shape mismatch: %s vs %s" % (lam.shape, w.shape))
    num = lam * w
    return num / num.sum()


def loss(p):
    """Potential L(p) = -(1/3) sum p_i^3 + (1/4) (sum p_i^2)^2.

    Its negative Euclidean gradient restricted to the simplex is the
    replicator field p * (p - ||p||^2)."""
    p = np.asarray(p, dtype=float)
    sq = float(np.dot(p, p))
    return -(p ** 3).sum() / 3.0 + 0.25 * sq * sq


def loss_gradient(p):
    """Gradient of `loss`: -p * (p - ||p||^2)."""
    p = np.asarray(p, dtype=float)
    return -p * (p - np.dot(p, p))


def loss_hessian(p):
    """Hessian of `loss`: 2 p p^T + ||p||^2 I - 2 diag(p)."""
    p = np.asarray(p, dtype=float)
    d = p.size
    return 2.0 * np.outer(p, p) + np.dot(p, p) * np.eye(d) - 2.0 * np.diag(p)


def replicator_field(p, fitness=None):
    """Replicator vector field p * (f - p.f); with f = p this is -loss_gradient."""
    p = np.asarray(p, dtype=float)
    f = p if fitness is None else np.asarray(fitness, dtype=float)
    return p * (f - np.dot(p, f))


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point of `loss` on the simplex: uniform on a support set.

    support: 0-based coordinate indices carrying mass 1/len(support) each.
    kind: "minimum" (singleton support, a vertex) or "saddle".
    """

    support: tuple
    point: np.ndarray
    value: float
    kind: str

    @property
    def is_vertex(self):
        return len(self.support) == 1


def critical_points(d):
    """All critical points of `loss` on the (d-1)-simplex.

    They are exactly the barycenters of coordinate faces: uniform on S for
    every nonempty S of {0, ..., d-1}; 2^d - 1 in total, listed in
    lexicographic order of the support. Only the singletons (vertices) are
    local minima; every other one is a saddle. The value on a support of
    size n is -1/(12 n^2).
    """
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    out = []
    supports = sorted(chain.from_iterable(combinations(range(d), r) for r in range(1, d + 1)))
    for s in supports:
        n = len(s)
        point = np.zeros(d)
        point[list(s)] = 1.0 / n
        out.append(
            CriticalPoint(
                support=tuple(s),
                point=point,
                value=-1.0 / (12.0 * n * n),
                kind="minimum" if n == 1 else "saddle",
            )
        )
    return out


def critical_point_hessian_eigenvalues(d, n):
    """Eigenvalues of `loss_hessian` at a critical point with support size n
    inside dimension d, as (eigenvalue, multiplicity) pairs.

    1/n with multiplicity 1 (the all-ones direction on the support),
    -1/n with multiplicity n - 1 (within-support), and
    1/n with multiplicity d - n (off-support coordinates).
    """
    if not (1 <= n <= d):
        raise InvalidInputError("need 1 <= n <= d")
    pairs = [(1.0 / n, 1)]
    if n > 1:
        pairs.append((-1.0 / n, n - 1))
    if d > n:
        pairs.append((1.0 / n, d - n))
    return pairs


def barycentric_embedding(p):
    """Planar coordinates (p_2 + p_3/2, sqrt(3)/2 * p_3) for d = 3 plotting.

    Vertices map to (0,0), (1,0), (1/2, sqrt(3)/2)."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != 3:
        raise InvalidInputError("barycentric embedding requires d = 3")
    x = p[..., 1] + 0.5 * p[..., 2]
    y = 0.5 * np.sqrt(3.0) * p[..., 2]
    return x, y


def landscape_grid(grid_step):
    """Loss values of `loss` on the regular lattice {(i, j, n-i-j)/n} covering
    the 2-simplex, with n = round(1/grid_step).

    Returns (points, x, y, values) where points has shape (m, 3)."""
    n = int(round(1.0 / grid_step))
    if n < 1:
        raise InvalidInputError("grid_step must be at most 1")
    pts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            pts.append((i / n, j / n, (n - i - j) / n))
    pts = np.array(pts)
    sq = (pts ** 2).sum(axis=1)
    vals = -(pts ** 3).sum(axis=1) / 3.0 + 0.25 * sq * sq
    x, y = barycentric_embedding(pts)
    return pts, x, y, vals
