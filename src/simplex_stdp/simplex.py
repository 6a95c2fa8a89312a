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


def as_float_array(x, name="input"):
    """x (outside input: a list, a JSON value, an array) as a float array;
    ragged or non-numeric input raises InvalidInputError."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError("%s must be a numeric array: %s" % (name, exc)) from None


def as_probability_vector(p):
    """Validate a vector as a simplex point.

    Entries must be nonnegative and the total must be within RENORM_TOL of 1;
    totals within SUM_TOL are accepted as-is, larger (but tolerable) drift is
    fixed by dividing by the sum.
    """
    p = as_float_array(p, "probability vector")
    if p.ndim != 1 or p.size == 0:
        raise InvalidInputError("expected a nonempty 1-d vector, got shape %s" % (p.shape,))
    if np.any(p < 0):
        raise InvalidInputError("negative entries: %s" % p[p < 0])
    s = float(p.sum())
    if abs(s - 1.0) <= SUM_TOL:
        return p
    if abs(s - 1.0) <= RENORM_TOL:
        return p / s
    raise InvalidInputError("entries sum to %.17g, not 1 (tolerance %g)" % (s, RENORM_TOL))


def validate_intensities(lam):
    """Check that an intensity vector is 1-d with finite, strictly positive
    entries."""
    lam = as_float_array(lam, "intensities")
    if lam.ndim != 1 or lam.size == 0:
        raise InvalidInputError("intensities must be a nonempty 1-d vector")
    if not np.all((lam > 0) & (lam < np.inf)):
        raise InvalidInputError("intensities must be finite and strictly positive, got %s" % lam)
    return lam


def validate_weights(w):
    """Check that a weight vector is 1-d, finite, nonnegative, and not
    identically zero."""
    w = as_float_array(w, "weights")
    if w.ndim != 1 or w.size == 0:
        raise InvalidInputError("weights must be a nonempty 1-d vector")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("weights must be finite, got %s" % w)
    if np.any(w < 0):
        raise InvalidInputError("weights must be nonnegative, got %s" % w)
    if not np.any(w > 0):
        raise InvalidInputError("weights must have at least one positive entry")
    return w


# Most rows a run may record, counted as n // stride + 2. The largest
# recording of the tests and CLI defaults has 5002 rows; a recording of 10^6
# rows of one d = 3 trajectory peaks at about 160 MiB in fig2-trajectories
# and its CSV takes 54 MB, while a larger request used to end in a failed
# allocation (728 TiB for a flow horizon of 1e12 at stride 1).
MAX_RECORDED_ROWS = 10**6


def recorded_steps(n, stride):
    """The steps 0, stride, 2 stride, ... up to n that a run records, plus n."""
    if stride < 1:
        raise InvalidInputError("record_stride must be >= 1, got %r" % (stride,))
    if n // stride + 2 > MAX_RECORDED_ROWS:
        raise InvalidInputError("recording every %d of %d steps takes more than %d rows; raise "
                                "record_stride" % (stride, n, MAX_RECORDED_ROWS))
    # not np.unique, which imports numpy.ma (1.7 MiB with numpy 2.4)
    steps = np.arange(0, n + 1, stride)
    return steps if n % stride == 0 else np.append(steps, n)


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
    """Potential L(p) = -(1/3) sum p_i^3 + (1/4) (sum p_i^2)^2 along the last
    axis of p.

    Its negative Euclidean gradient restricted to the simplex is the
    replicator field p * (p - ||p||^2)."""
    p = np.asarray(p, dtype=float)
    sq = (p ** 2).sum(axis=-1)
    return -(p ** 3).sum(axis=-1) / 3.0 + 0.25 * sq * sq


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
    """Replicator vector field p * (f - p.f) along the last axis of p; with
    f = p this is -loss_gradient. p.f is summed in numpy's pairwise order,
    not through BLAS, whose order depends on the build."""
    p = np.asarray(p, dtype=float)
    f = p if fitness is None else np.asarray(fitness, dtype=float)
    return p * (f - (p * f).sum(axis=-1, keepdims=True))


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point of `loss` on the simplex: uniform on a support set.

    support: 0-based coordinate indices carrying mass 1/len(support) each.
    kind: "minimum" (a vertex), "maximum" (the full-support barycentre, for
    d >= 2) or "saddle" (every other face's barycentre).
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
    lexicographic order of the support. The value on a support of size n is
    -1/(12 n^2).

    The kind comes from the sign of `loss_hessian`'s curvature v^T H v along
    the feasible directions: tangent e_i - e_j (i, j in S, -2/n) and outward
    e_j - p (j outside S, (1 + 1/n)/n). A point is a minimum when every one
    curves up, a maximum when every one curves down, and a saddle otherwise:
    the vertices are the minima, the full-support barycentre is a maximum
    (d >= 2, no outward direction) and every other point is a saddle. d = 1's
    single point has no direction and is a minimum.
    """
    if d < 1:
        raise InvalidInputError("dimension must be >= 1")
    out = []
    eye = np.eye(d)
    supports = sorted(chain.from_iterable(combinations(range(d), r) for r in range(1, d + 1)))
    for s in supports:
        n = len(s)
        point = np.zeros(d)
        point[list(s)] = 1.0 / n
        h = loss_hessian(point)
        dirs = [eye[i] - eye[j] for i, j in combinations(s, 2)]
        dirs += [eye[j] - point for j in range(d) if j not in s]
        curvatures = [v @ h @ v for v in dirs]
        out.append(
            CriticalPoint(
                support=tuple(s),
                point=point,
                value=-1.0 / (12.0 * n * n),
                kind="minimum" if all(c > 0 for c in curvatures)
                else "maximum" if all(c < 0 for c in curvatures) else "saddle",
            )
        )
    return out


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
    if not grid_step > 0:
        raise InvalidInputError("grid_step must be positive, got %r" % (grid_step,))
    n = int(round(1.0 / grid_step))
    if n < 1:
        raise InvalidInputError("grid_step must be at most 1")
    # the pairs r <= c in row order are i = r, j = c - r with i + j <= n
    r, c = np.triu_indices(n + 1)
    pts = np.stack([r, c - r, n - c], axis=1) / n
    x, y = barycentric_embedding(pts)
    return pts, x, y, loss(pts)
