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

from .simplex import InvalidInputError, validate_intensities
from .dynamics import (
    CHUNK,
    NoiseModel,
    check_rate,
    draw_chunk,
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
    """(1/2) ||P - target||_F^2; target defaults to the identity."""
    p = np.asarray(p_matrix, dtype=float)
    t = np.eye(p.shape[0]) if target is None else np.asarray(target, dtype=float)
    diff = p - t
    return 0.5 * float((diff * diff).sum())


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
    recorded_steps: np.ndarray
    weights: np.ndarray  # (n_rec, d, d_out)
    probabilities: np.ndarray  # (n_rec, d, d_out)
    clip_events: int
    orthogonality_violation: float  # max |<increment, lower column>| / scale seen


def _probabilities_columns(lam, w):
    num = lam[:, None] * w
    return num / num.sum(axis=0, keepdims=True)


def _orthonormal_basis(columns):
    """Modified Gram-Schmidt orthonormal basis of the given vectors (near-zero
    residuals are dropped)."""
    basis = []
    for v in columns:
        r = v.astype(float).copy()
        for u in basis:
            r -= np.dot(r, u) * u
        norm = np.linalg.norm(r)
        if norm > 1e-12 * max(1.0, np.linalg.norm(v)):
            basis.append(r / norm)
    return basis


def joint_run(config, seed):
    """Joint deflation scheme, single seeded run.

    Per step and column j: draw a one-hot trigger from column j's current
    probabilities and a noise vector from that column's stream; the raw
    increment alpha_j * w_j * (B + Z) is projected off the span of the
    start-of-step columns 0..j-1 before being added, so the applied increment
    is exactly orthogonal to each of them. Negative entries produced by
    deflation are clipped to zero and counted."""
    config.validated()
    lam = np.asarray(config.lam, dtype=float)
    w = np.asarray(config.w0, dtype=float).copy()
    d, d_out = w.shape
    alphas = np.asarray(config.alphas, dtype=float)
    rngs = [stream_for((seed, j)) for j in range(d_out)]
    n = config.n_steps
    rec = list(range(0, n + 1, config.record_stride))
    if rec[-1] != n:
        rec.append(n)
    rec = np.array(rec, dtype=int)
    weights = np.empty((rec.size, d, d_out))
    probs = np.empty((rec.size, d, d_out))
    pos = 0
    clip_events = 0
    ortho_violation = 0.0
    k = 0
    while True:
        if pos < rec.size and rec[pos] == k:
            weights[pos] = w
            probs[pos] = _probabilities_columns(lam, w)
            pos += 1
        if k == n:
            break
        m = min(CHUNK, n - k)
        u, z, _ = draw_chunk(rngs, m, d, config.noise)
        for t in range(m):
            w_start = w.copy()
            idx = sample_triggers(_probabilities_columns(lam, w_start).T, u[:, t])
            for j in range(d_out):
                y = z[j, t].copy()
                y[idx[j]] += 1.0
                inc = alphas[j] * w_start[:, j] * y
                if j > 0:
                    for ub in _orthonormal_basis([w_start[:, i] for i in range(j)]):
                        inc = inc - np.dot(inc, ub) * ub
                for i in range(j):
                    base = w_start[:, i]
                    scale = max(np.linalg.norm(inc) * np.linalg.norm(base), 1e-300)
                    ortho_violation = max(ortho_violation, abs(float(np.dot(inc, base))) / scale)
                new_col = w_start[:, j] + inc
                if np.any(new_col < 0):
                    clip_events += int(np.sum(new_col < 0))
                    np.clip(new_col, 0.0, None, out=new_col)
                w[:, j] = new_col
            k += 1
            if pos < rec.size and rec[pos] == k and k < n:
                weights[pos] = w
                probs[pos] = _probabilities_columns(lam, w)
                pos += 1
    return MultiRunRecord(
        recorded_steps=rec,
        weights=weights,
        probabilities=probs,
        clip_events=clip_events,
        orthogonality_violation=ortho_violation,
    )


def joint_final_errors(lam, w0, alphas, n_steps, n_seeds, seed, noise=None, index_start=0):
    """Vectorized-over-seeds joint scheme; returns the final half squared
    Frobenius error of each seed's probability matrix against the identity."""
    noise = noise or NoiseModel()
    lam = validate_intensities(lam)
    w0 = np.asarray(w0, dtype=float)
    d, d_out = w0.shape
    alphas = np.asarray(alphas, dtype=float)
    check_rate(alphas, noise.q_bound)
    w = np.tile(w0, (n_seeds, 1, 1))  # (n_seeds, d, d_out)
    rngs = [stream_for((seed, index_start + s, j)) for s in range(n_seeds) for j in range(d_out)]
    eye_rows = np.eye(d)
    k = 0
    while k < n_steps:
        m = min(CHUNK, n_steps - k)
        u, z, _ = draw_chunk(rngs, m, d, noise)
        u = u.reshape(n_seeds, d_out, m)
        z = z.reshape(n_seeds, d_out, m, d)
        for t in range(m):
            w_start = w.copy()
            num = lam[None, :, None] * w_start
            p_cols = num / num.sum(axis=1, keepdims=True)
            idx = sample_triggers(p_cols.transpose(0, 2, 1), u[:, :, t])
            for j in range(d_out):
                y = eye_rows[idx[:, j]] + z[:, j, t]
                inc = alphas[j] * w_start[:, :, j] * y
                # per-seed modified Gram-Schmidt of the lower columns, then
                # project the increment off their span
                basis = []
                for i in range(j):
                    r = w_start[:, :, i].copy()
                    for ub in basis:
                        r -= (r * ub).sum(axis=1, keepdims=True) * ub
                    norm = np.linalg.norm(r, axis=1, keepdims=True)
                    keep = norm > 1e-12
                    ub = np.where(keep, r / np.maximum(norm, 1e-300), 0.0)
                    basis.append(ub)
                for ub in basis:
                    inc = inc - (inc * ub).sum(axis=1, keepdims=True) * ub
                w[:, :, j] = np.clip(w_start[:, :, j] + inc, 0.0, None)
            k += 1
    num = lam[None, :, None] * w
    p = num / num.sum(axis=1, keepdims=True)
    diff = p - np.eye(d)[None, :, :d_out]
    return 0.5 * (diff * diff).sum(axis=(1, 2))


def _train_columns(lam, w0, alpha, k_per_column, keys, noise):
    """The sequential scheme for a batch of runs, before projection.

    Column j starts from w0 with the axes of the trained columns 0..j-1
    zeroed (deflation against their axis-aligned outputs) and runs
    k_per_column steps of the single-neuron rule on the streams keys(j).
    Returns the trained columns, shape (n, d, d)."""
    lam = validate_intensities(lam)
    w0 = np.asarray(w0, dtype=float)
    columns = []
    for j in range(w0.size):
        keys_j = keys(j)
        w = np.tile(w0, (len(keys_j), 1))
        for col in columns:
            w[np.arange(len(keys_j)), np.argmax(col, axis=1)] = 0.0
        columns.append(simulate(w, alpha, k_per_column, keys_j, noise, lam=lam))
    return np.stack(columns, axis=2)


def sequential_run(lam, w0, alpha, k_per_column, seed, noise=None):
    """Sequential scheme, single seeded run.

    Column j (stream key (seed, j)) starts from w0 with the dominant axes of
    the frozen outputs 0..j-1 zeroed, runs k_per_column multiplicative steps
    of the single-neuron rule, and is then snapped onto its dominant axis.
    Returns (W_star, P_star)."""
    trained = _train_columns(lam, w0, alpha, k_per_column, lambda j: [(seed, j)],
                             noise or NoiseModel())[0]
    w_star = np.stack([cosine_projection(col) for col in trained.T], axis=1)
    return w_star, _probabilities_columns(np.asarray(lam, dtype=float), w_star)


def sequential_success_ensemble(lam, w0, alpha, k_per_column, n_seeds, seed, noise=None, index_start=0):
    """Vectorized-over-seeds sequential scheme; seed s uses the stream key
    (seed, index_start + s, j) for column j.

    Returns a boolean array: seed s succeeded when its final probability
    matrix is exactly the identity (column j snapped onto axis j)."""
    trained = _train_columns(
        lam, w0, alpha, k_per_column,
        lambda j: [(seed, index_start + s, j) for s in range(n_seeds)],
        noise or NoiseModel(),
    )
    axes = np.argmax(trained, axis=1)
    return (axes == np.arange(trained.shape[1])).all(axis=1)
