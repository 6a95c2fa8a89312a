"""Multi-output extensions: learning several weight vectors whose trigger
probabilities converge to distinct vertices.

Two schemes are implemented. The joint scheme updates all columns each step
and Gram-Schmidt-deflates every column's increment against the lower-indexed
columns, so increments stay orthogonal to them. The sequential scheme trains
one column at a time to convergence, deflates the next initial column against
the already-frozen outputs, and snaps each trained column onto its dominant
axis (a "cosine" projection that keeps the norm).
"""

from dataclasses import dataclass, field

import numpy as np

from . import dynamics
from .simplex import InvalidInputError, recorded_steps, validate_intensities
from .dynamics import (
    NoiseModel,
    check_finite,
    check_rate,
    draw_chunk,
    probabilities,
    rescale,
    sample_triggers,
    simulate,
    stream_for,
)


def cosine_projection(w):
    """||w|| times the unit vector of w's largest coordinate (lowest index on
    ties)."""
    w = np.asarray(w, dtype=float)
    out = np.zeros_like(w)
    out[int(np.argmax(w))] = np.linalg.norm(w)
    return out


def frobenius_half_error(p_matrix, target=None):
    """(1/2) ||P - target||_F^2 over the last two axes; target defaults to
    the identity (its first d_out columns for a (d, d_out) matrix)."""
    p = np.asarray(p_matrix, dtype=float)
    t = np.eye(*p.shape[-2:]) if target is None else np.asarray(target, dtype=float)
    diff = p - t
    return 0.5 * (diff * diff).sum(axis=(-2, -1))


def required_iterations(d, alpha, gap, epsilon, delta):
    """Per-column iteration budget
    K >= (16 d / (alpha gap (4 + d gap))) log(4 / (epsilon delta))."""
    if not 0 < delta < 1 or not 0 < epsilon < 1:
        raise InvalidInputError("epsilon and delta must lie in (0, 1)")
    return int(np.ceil(16.0 * d / (alpha * gap * (4.0 + d * gap)) * np.log(4.0 / (epsilon * delta))))


def admissible_delta(lam):
    """The sequential scheme tolerates per-column error delta only below
    kappa/(1+kappa) with kappa = min(lam)/max(lam)."""
    lam = validate_intensities(lam)
    kappa = float(lam.min() / lam.max())
    return kappa / (1.0 + kappa)


def runner_up_weight_bound(lam, delta):
    """If 1 - p_1 < delta then every other weight is at most
    w_1 * (max lam / min lam) * delta / (1 - delta) (relative bound)."""
    lam = validate_intensities(lam)
    kappa = float(lam.min() / lam.max())
    return delta / (kappa * (1.0 - delta))


@dataclass
class MultiRunConfig:
    """Joint multi-output run: d_out columns, per-column rates alphas."""

    lam: np.ndarray
    w0: np.ndarray  # (d, d_out) columns are the output neurons
    alphas: np.ndarray
    n_steps: int
    noise: NoiseModel = field(default_factory=NoiseModel)
    record_stride: int = 1

    def validated(self):
        lam = validate_intensities(self.lam)
        w0 = np.asarray(self.w0, dtype=float)
        alphas = np.asarray(self.alphas, dtype=float)
        errors = []
        if w0.ndim != 2 or w0.shape[0] != lam.size:
            errors.append("w0 must be (d, d_out) with d matching intensities")
        if np.any(w0 < 0) or np.any(w0.sum(axis=0) <= 0):
            errors.append("each weight column must be nonnegative with positive sum")
        if alphas.size != w0.shape[1]:
            errors.append("one rate per output column required")
        try:
            check_rate(alphas, self.noise.q_bound)
        except InvalidInputError as exc:
            errors.append(str(exc))
        if self.n_steps < 0:
            errors.append("n_steps must be nonnegative")
        if errors:
            raise InvalidInputError("; ".join(errors))
        return self


@dataclass
class MultiRunRecord:
    """Recorded joint run; weights are defined up to a power-of-two factor per column."""

    recorded_steps: np.ndarray
    weights: np.ndarray  # (n_rec, d, d_out)
    probabilities: np.ndarray  # (n_rec, d, d_out)
    clip_events: int


def _key_prefix(seed):
    """A stream key prefix: an int seed is the prefix (seed,)."""
    return seed if isinstance(seed, tuple) else (seed,)


def _joint_steps(config, prefixes, observe=None):
    """The joint scheme for a batch of runs; returns the final columns,
    stored as rows: shape (n_runs, d_out, d).

    Run r's column j draws from the stream prefixes[r] + (j,). Per step every
    column's increment alpha_j * w_j * (B + Z) is projected off the span of
    the start-of-step columns 0..j-1 (Gram-Schmidt residuals below 1e-12 of
    their column's norm are dropped), then negative entries are clipped.
    observe(k, w, inc, w_next) is called after every step; the columns are
    checked after every chunk and rescaled between chunks as in `simulate`."""
    lam = validate_intensities(config.lam)
    alphas = np.asarray(config.alphas, dtype=float)[:, None]
    w = np.tile(np.asarray(config.w0, dtype=float).T, (len(prefixes), 1, 1))
    n, d_out, d = w.shape
    rngs = [stream_for(prefix + (j,)) for prefix in prefixes for j in range(d_out)]
    eye_rows = np.eye(d)
    k = 0
    while k < config.n_steps:
        m = min(dynamics.CHUNK, config.n_steps - k)
        u, z, _ = draw_chunk(rngs, m, d, config.noise)
        u = u.reshape(n, d_out, m)
        z = z.reshape(n, d_out, m, d)
        for t in range(m):
            idx = sample_triggers(probabilities(lam, w), u[:, :, t])
            inc = alphas * w * (eye_rows[idx] + z[:, :, t])
            basis = []
            for i in range(d_out - 1):
                r = w[:, i].copy()
                for ub in basis:
                    r -= (r * ub).sum(axis=-1, keepdims=True) * ub
                norm = np.linalg.norm(r, axis=-1, keepdims=True)
                keep = norm > 1e-12 * np.linalg.norm(w[:, i], axis=-1, keepdims=True)
                ub = np.where(keep, r / np.maximum(norm, 1e-300), 0.0)
                basis.append(ub)
                higher = inc[:, i + 1:]
                higher -= (higher * ub[:, None]).sum(axis=-1, keepdims=True) * ub[:, None]
            w_next = np.clip(w + inc, 0.0, None)
            if observe is not None:
                observe(k, w, inc, w_next)
            w = w_next
            k += 1
        check_finite(w, k, config.alphas)
        if k < config.n_steps:
            w = rescale(w)
    return w


def joint_run(config, seed):
    """Joint deflation scheme, single seeded run: the batch-of-one run of the
    joint loop on key prefix seed (an int or a tuple), so column j uses the
    stream prefix + (j,) and joint_run(config, (S, s)) equals member s of
    joint_final_errors(..., seed=S). Records weights and probabilities every
    record_stride steps and counts clipped entries."""
    lam = validate_intensities(config.validated().lam)
    rec = recorded_steps(config.n_steps, config.record_stride)
    weights = np.empty((rec.size, *np.shape(config.w0)))
    probs = np.empty_like(weights)
    pos = 0
    clip_events = 0

    def record(k, w):
        nonlocal pos
        if pos < rec.size and rec[pos] == k:
            weights[pos] = w.T
            probs[pos] = probabilities(lam, w).T
            pos += 1

    def observe(k, w, inc, w_next):
        nonlocal clip_events
        clip_events += int(np.count_nonzero(w + inc < 0))
        record(k + 1, w_next[0])

    record(0, np.asarray(config.w0, dtype=float).T)
    _joint_steps(config, [_key_prefix(seed)], observe)
    return MultiRunRecord(
        recorded_steps=rec,
        weights=weights,
        probabilities=probs,
        clip_events=clip_events,
    )


def joint_final_errors(lam, w0, alphas, n_steps, n_seeds, seed, noise=None, index_start=0):
    """Joint scheme for a batch of seeds; seed s runs on key prefix
    (seed, index_start + s). Returns the final half squared Frobenius error
    of each seed's probability matrix against the identity."""
    config = MultiRunConfig(lam=lam, w0=w0, alphas=alphas, n_steps=n_steps,
                            noise=noise or NoiseModel()).validated()
    w = _joint_steps(config, [(seed, index_start + s) for s in range(n_seeds)])
    return frobenius_half_error(probabilities(config.lam, w).transpose(0, 2, 1))


def _train_columns(lam, w0, alpha, k_per_column, prefixes, noise):
    """The sequential scheme for a batch of runs, before projection.

    Column j starts from w0 with the axes of the trained columns 0..j-1
    zeroed (deflation against their axis-aligned outputs) and runs
    k_per_column steps of the single-neuron rule; run r's column j uses the
    stream keyed prefixes[r] + (j,). Returns the trained columns, shape
    (n, d, d)."""
    lam = validate_intensities(lam)
    w0 = np.asarray(w0, dtype=float)
    rows = np.arange(len(prefixes))
    columns = []
    for j in range(w0.size):
        w = np.tile(w0, (rows.size, 1))
        for col in columns:
            w[rows, np.argmax(col, axis=1)] = 0.0
        keys = [prefix + (j,) for prefix in prefixes]
        columns.append(simulate(w, alpha, k_per_column, keys, noise, lam=lam))
    return np.stack(columns, axis=2)


def sequential_run(lam, w0, alpha, k_per_column, seed, noise=None):
    """Sequential scheme, single seeded run on key prefix seed (an int or a
    tuple): column j uses the stream prefix + (j,), so
    sequential_run(..., (S, s)) is member s of
    sequential_success_ensemble(..., seed=S).

    Column j starts from w0 with the dominant axes of the frozen outputs
    0..j-1 zeroed, runs k_per_column multiplicative steps of the
    single-neuron rule, and is then snapped onto its dominant axis.
    Returns (W_star, P_star)."""
    trained = _train_columns(lam, w0, alpha, k_per_column, [_key_prefix(seed)],
                             noise or NoiseModel())[0]
    w_star = np.stack([cosine_projection(col) for col in trained.T], axis=1)
    return w_star, probabilities(np.asarray(lam, dtype=float), w_star.T).T


def sequential_success_ensemble(lam, w0, alpha, k_per_column, n_seeds, seed, noise=None, index_start=0):
    """Sequential scheme for a batch of seeds; seed s runs on key prefix
    (seed, index_start + s).

    Returns a boolean array: seed s succeeded when its final probability
    matrix is exactly the identity (column j snapped onto axis j)."""
    trained = _train_columns(
        lam, w0, alpha, k_per_column,
        [(seed, index_start + s) for s in range(n_seeds)], noise or NoiseModel(),
    )
    axes = np.argmax(trained, axis=1)
    return (axes == np.arange(trained.shape[1])).all(axis=1)
