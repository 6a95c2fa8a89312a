"""Multi-output extensions: learning several weight vectors whose trigger
probabilities converge to distinct vertices.

Two schemes are implemented. The joint scheme updates all columns each step
and Gram-Schmidt-deflates every column's increment against the lower-indexed
columns, so increments stay orthogonal to them. The sequential scheme trains
one column at a time to convergence, deflates the next initial column against
the already-frozen outputs, and snaps each trained column onto its dominant
axis (a "cosine" projection that keeps the norm).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .simplex import (InvalidInputError, as_float_array, probabilities_from_weights,
                      recorded_steps, validate_intensities)
from .dynamics import (Recorder, _drive, _vector_of, _weight_sums, probabilities,
                       sample_triggers, simulate)


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
    if not alpha > 0 or not 0 < gap < np.inf:
        raise InvalidInputError("need alpha > 0 and a finite positive gap, got alpha=%r, gap=%r"
                                % (alpha, gap))
    return int(np.ceil(16.0 * d / (alpha * gap * (4.0 + d * gap)) * np.log(4.0 / (epsilon * delta))))


def admissible_delta(lam):
    """The sequential scheme tolerates per-column error delta only below
    kappa/(1+kappa) with kappa = min(lam)/max(lam)."""
    lam = validate_intensities(lam)
    kappa = float(lam.min() / lam.max())
    return kappa / (1.0 + kappa)


def deflated_starts(lam, w0):
    """The start of each column's subproblem in the sequential scheme but the
    last, assuming every earlier column landed on its axis: the trigger
    probabilities of w0 with those axes zeroed, leading coordinate first, the
    form Theorem 2.2 takes."""
    w = np.array(w0, dtype=float)
    lam = _vector_of(lam, w.size, "intensities")
    starts = []
    for j in range(w.size - 1):
        num = lam * w
        if not np.any(num > 0):
            raise InvalidInputError("deflated subproblem %d of w0=%s has no weight left" % (j, w0))
        p = num / num.sum()
        star = int(p.argmax())
        starts.append(np.r_[p[star], np.delete(p, star)])
        w[star] = 0.0
    return starts


@dataclass
class MultiRunConfig:
    """Joint multi-output run: d_out columns, per-column rates alphas."""

    lam: np.ndarray
    w0: np.ndarray  # (d, d_out) columns are the output neurons
    alphas: np.ndarray
    n_steps: int
    record_stride: int = 1


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


def _deflated_increments(w, alpha, y):
    """The increments alpha_j * w_j * y_j of every column j (stored as rows:
    w and y of shape (n, d_out, d), alpha (d_out, 1)), each projected off the
    span of the columns 0..j-1 of w by Gram-Schmidt; residuals below 1e-12
    of their column's norm are dropped. Scaling a column of w by a power of
    two scales its increment alike and leaves the unit vectors as they are."""
    inc = alpha * w * y
    basis = []
    for i in range(w.shape[1] - 1):
        scale = np.linalg.norm(w[:, i], axis=-1, keepdims=True)
        r = w[:, i].copy()
        for ub in basis:
            r -= (r * ub).sum(axis=-1, keepdims=True) * ub
        norm = np.linalg.norm(r, axis=-1, keepdims=True)
        keep = norm > 1e-12 * scale
        ub = np.where(keep, r / np.maximum(norm, 1e-300), 0.0)
        basis.append(ub)
        higher = inc[:, i + 1:]
        higher -= (higher * ub[:, None]).sum(axis=-1, keepdims=True) * ub[:, None]
    return inc


def _joint_step(x, alpha, streams, lam, gamma, tracker):
    """The joint scheme's numpy step, in the signature of
    `dynamics.numpy_step`: returns advance(k0, k1), which runs steps k0..k1-1
    on the weights x in place under the intensities lam. The rows of x are
    the columns of the runs, d_out per run, and alpha holds their (d_out, 1)
    rates. Per step every column moves by its deflated increment, negative
    entries are clipped, and a tracker's `clip_events` counts them. gamma
    is not used. Each step first scales the columns whose lam * w sum leaves
    [2^-256, 2^256] (`dynamics._weight_sums`), so the weights cannot
    overflow. This is the reference of the compiled `_kernel.joint`, and
    runs when the kernel does not load."""
    d_out, d = alpha.shape[0], x.shape[1]
    w = x.reshape(-1, d_out, d)
    eye_rows = np.eye(d)

    def advance(k0, k1):
        for u, z, _ in streams.segments(k1 - k0):
            u = u.reshape(w.shape[0], d_out, -1)
            z = z.reshape(w.shape[0], d_out, -1, d)
            for t in range(u.shape[-1]):
                num, total = _weight_sums(lam, w)
                idx = sample_triggers(num / total, u[:, :, t])
                w_next = w + _deflated_increments(w, alpha, eye_rows[idx] + z[:, :, t])
                if tracker is not None:
                    tracker.clip_events += int(np.count_nonzero(w_next < 0))
                np.clip(w_next, 0.0, None, out=w)

    return advance


class _ClipCounter(Recorder):
    """A `Recorder` that the joint step also hands the number of entries it
    clips, counted in `clip_events`."""

    tracks = True
    clip_events = 0


def _joint_steps(config, prefixes, record=None):
    """The joint scheme for a batch of runs; returns the final columns,
    stored as rows: shape (n_runs, d_out, d).

    Run r's column j draws from the stream prefixes[r] + (j,). The rows of
    the state are the (run, column) pairs in that order, and
    `dynamics._drive` runs the step on them: the compiled `_kernel.joint`
    when the kernel loads, otherwise its numpy reference `_joint_step`, with
    the same results bit for bit. Here w0 must be (d, d_out) with one rate
    per column; `_drive` checks the rest of the inputs as for `simulate`
    and calls record (a `Recorder`, given the state after k steps at its
    checkpoints), and the step scales a column by a power of two when its
    lam * w sum leaves [2^-256, 2^256]."""
    w0 = as_float_array(config.w0, "w0").T
    alphas = as_float_array(config.alphas, "alphas")
    if w0.ndim != 2 or alphas.shape != w0.shape[:1]:
        raise InvalidInputError("w0 must be (d, d_out) with one rate per output column, got "
                                "shapes %s and %s" % (w0.T.shape, alphas.shape))
    keys = [prefix + (j,) for prefix in prefixes for j in range(w0.shape[0])]
    step = _joint_step if _kernel.library() is None else _kernel.joint
    w = _drive(step, np.tile(w0, (len(prefixes), 1)), alphas[:, None], config.n_steps, keys,
               lam=as_float_array(config.lam, "intensities"), record=record)
    return w.reshape(len(prefixes), *w0.shape)


def joint_run(config, seed):
    """Joint deflation scheme, single seeded run: the batch-of-one run of the
    joint loop on key prefix seed (an int or a tuple), so column j uses the
    stream prefix + (j,) and joint_run(config, (S, s)) equals member s of
    joint_final_errors(..., seed=S). Records weights and probabilities every
    record_stride steps through a `Recorder` and counts clipped entries."""
    recorder = _ClipCounter(recorded_steps(config.n_steps, config.record_stride))
    _joint_steps(config, [_key_prefix(seed)], recorder)
    w = recorder.states
    lam = np.asarray(config.lam, dtype=float)  # checked by the run
    return MultiRunRecord(
        recorded_steps=recorder.checkpoints,
        weights=np.ascontiguousarray(w.transpose(0, 2, 1)),
        probabilities=np.ascontiguousarray(probabilities(lam, w).transpose(0, 2, 1)),
        clip_events=recorder.clip_events,
    )


def joint_final_errors(lam, w0, alphas, n_steps, n_seeds, seed):
    """Joint scheme for a batch of seeds; seed s runs on key prefix
    (seed, s). Returns the final half squared Frobenius error of each
    seed's probability matrix against the identity."""
    config = MultiRunConfig(lam=lam, w0=w0, alphas=alphas, n_steps=n_steps)
    w = _joint_steps(config, [(seed, s) for s in range(n_seeds)])
    return frobenius_half_error(probabilities(config.lam, w).transpose(0, 2, 1))


def _train_columns(lam, w0, alpha, k_per_column, prefixes):
    """The sequential scheme for a batch of runs, before projection.

    Column j starts from w0 with the axes of the trained columns 0..j-1
    zeroed (deflation against their axis-aligned outputs), is checked as
    weights and converted to its trigger probabilities, and runs
    k_per_column steps of the single-neuron rule; run r's column j uses the
    stream keyed prefixes[r] + (j,). Returns the trained columns as p / lam,
    the weights up to a positive factor per column, shape (n, d, d)."""
    w0 = np.asarray(w0, dtype=float)
    lam = _vector_of(lam, w0.size, "intensities")
    rows = np.arange(len(prefixes))
    columns = []
    for j in range(w0.size):
        w = np.tile(w0, (rows.size, 1))
        for col in columns:
            w[rows, np.argmax(col, axis=1)] = 0.0
        p0 = np.array([probabilities_from_weights(lam, row) for row in w])
        if j and (np.count_nonzero(p0, axis=1) == 1).all():
            # a vertex is a fixed point of the rule: p * (1 + alpha * y)
            # divided by its sum is p again, exactly. Column 0 always runs,
            # so _drive still checks the rate and the step count.
            columns.append(p0 / lam)
            continue
        keys = [prefix + (j,) for prefix in prefixes]
        columns.append(simulate(p0, alpha, k_per_column, keys) / lam)
    return np.stack(columns, axis=2)


def sequential_run(lam, w0, alpha, k_per_column, seed):
    """Sequential scheme, single seeded run on key prefix seed (an int or a
    tuple): column j uses the stream prefix + (j,), so
    sequential_run(..., (S, s)) is member s of
    sequential_success_ensemble(..., seed=S).

    Column j starts from w0 with the dominant axes of the frozen outputs
    0..j-1 zeroed, runs k_per_column multiplicative steps of the
    single-neuron rule, and is then snapped onto its dominant axis, the
    argmax of p / lam. Returns (W_star, P_star); the single-neuron run
    steps probabilities, so each column of W_star is defined up to a
    positive factor."""
    trained = _train_columns(lam, w0, alpha, k_per_column, [_key_prefix(seed)])[0]
    w_star = np.stack([cosine_projection(col) for col in trained.T], axis=1)
    return w_star, probabilities(np.asarray(lam, dtype=float), w_star.T).T


def sequential_success_ensemble(lam, w0, alpha, k_per_column, n_seeds, seed):
    """Sequential scheme for a batch of seeds; seed s runs on key prefix
    (seed, s).

    Returns a boolean array: seed s succeeded when its final probability
    matrix is exactly the identity (column j snapped onto axis j)."""
    trained = _train_columns(lam, w0, alpha, k_per_column, [(seed, s) for s in range(n_seeds)])
    axes = np.argmax(trained, axis=1)
    return (axes == np.arange(trained.shape[1])).all(axis=1)
