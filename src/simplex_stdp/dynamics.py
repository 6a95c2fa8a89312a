"""Stochastic multiplicative learning dynamics on the trigger probabilities.

One step draws a one-hot trigger B ~ Multinomial(1, p), a centered noise
vector Z ~ Unif[-1, 1]^d, and moves weights multiplicatively,
w <- w * (1 + alpha * (B + Z)). The trigger probabilities p = lam * w /
(lam . w) then follow their own closed rule,
p <- p * (1 + alpha * Y) / (p . (1 + alpha * Y)) with Y = B + Z, and a switch
of intensities lam_a -> lam_b is p <- p * (lam_b / lam_a), renormalised.

`simulate` is the one stepping kernel of single-neuron runs: it runs a batch
of keyed probability trajectories in lockstep, with independent or
correlated triggers and an optional intensity switch. The weight form is
left to the joint multi-output scheme (`multi`), whose Gram-Schmidt step
acts on weights. The module also provides the exact drift / martingale /
residual split of a probability step and a seeded, recorded
single-trajectory runner.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .simplex import (
    InvalidInputError,
    as_float_array,
    as_probability_vector,
    recorded_steps,
    validate_intensities,
    validate_weights,
)

# The longest segment `_drive` hands a step; the numpy steps hold the draws of
# about CHUNK row-steps at once (`Streams.segments`). The draws of a row do
# not depend on it.
CHUNK = 65536

# Q, the bound of |B + Z| for a one-hot B and Z in [-1, 1]^d: every rate lies
# in (0, 1/Q), where each update factor 1 + alpha * (B + Z) stays positive.
Q_BOUND = 2.0


class NoiseModel:
    """The centered noise Z of the rule, Unif[-1, 1] entrywise, so that
    |B + Z| <= Q_BOUND. The steps draw Z inline from their streams (`Streams`),
    with the arithmetic of `sample`."""

    def sample(self, rng, size):
        return rng.uniform(-1.0, 1.0, size)


def stream_for(seed):
    """Deterministic generator for a trajectory key (int or tuple of ints)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class Streams:
    """The draws of a batch, row i from the stream `stream_for(keys[i])` in
    step order: each step of a row reads one trigger uniform u, then d
    uniforms r, the noise z = -1 + 2 * r (numpy's uniform(-1, 1)), then, in
    a correlated run, d uniforms g, one per coordinate of the trigger's
    column of C. The compiled step reads the streams through the bit
    generators' state `addresses` (n,) and their shared `next_double`, the
    numpy steps through `segments`, so the draws of a row do not depend on
    how a run is cut into segments or pieces."""

    def __init__(self, keys, d, correlated=False):
        import ctypes

        self.d, self.correlated = d, correlated
        self.streams = [stream_for(key) for key in keys]
        self.addresses = np.array([g.bit_generator.ctypes.state_address for g in self.streams],
                                  dtype=np.uintp)
        self.next_double = ctypes.cast(self.streams[0].bit_generator.ctypes.next_double,
                                       ctypes.c_void_p).value

    def segments(self, s):
        """The draws of the next s steps of every row, in pieces of at most
        max(1, CHUNK // n) steps, so that a piece holds about CHUNK * (1 + d)
        doubles (1 + 2d when correlated) whatever the n rows: each piece is
        u (n, m), z (n, m, d) and g (n, m, d), None unless correlated, all
        views of one array, which the next piece overwrites."""
        n, d = len(self.streams), self.d
        most = max(1, CHUNK // n)
        buffer = np.empty((n, min(most, s), 1 + d + d * self.correlated))
        for k in range(0, s, most):
            draws = buffer[:, :min(most, s - k)]
            for rng, row in zip(self.streams, draws):
                rng.random(out=row)
            z = draws[:, :, 1:1 + d]
            z *= 2.0
            z -= 1.0
            yield draws[:, :, 0], z, draws[:, :, 1 + d:] if self.correlated else None


def check_rates(alpha):
    """Raise InvalidInputError unless every rate of alpha, a rate or the
    joint scheme's column of rates, lies in (0, 1/Q), Q = `Q_BOUND`."""
    a = np.asarray(alpha, dtype=float)
    if not np.all((a > 0) & (a < 1.0 / Q_BOUND)):
        raise InvalidInputError("alpha=%s outside (0, 1/2)"
                                % np.array2string(a.ravel() if a.ndim > 1 else a))


def _last_positive(p):
    """Index of the last strictly positive entry along the last axis."""
    p = np.asarray(p)
    return p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)


def sample_triggers(p, u):
    """Trigger indices by inverse CDF along the last axis of p: the number of
    cumulative sums at or below u (searchsorted with side="right"), or the
    last positive entry of p when that number is d.

    A zero entry repeats the previous cumulative sum, so a count below d
    never picks it; a count of d means u lies at or above a total that
    rounding left below 1. As a count below d is at most the last positive
    entry, the rule is their minimum, which only a count of d needs."""
    cum = np.cumsum(p, axis=-1)
    if cum.ndim == 1:
        # one p for many uniforms: with the d axis first the count adds
        # whole rows, where a sum along a short last axis costs about ten
        # times more per uniform
        idx = (cum.reshape(cum.shape + (1,) * np.ndim(u)) <= u).sum(axis=0)
    else:
        # one p per uniform, the numpy steps' case: here the d axis first
        # (np.moveaxis) made their runs slower end to end, without a
        # compiler alg2-verify --set alpha=0.05 --set n_seeds=10 taking
        # 0.59 s against 0.46 s (medians of 10 alternating pairs, 2-core VM)
        idx = (cum <= np.asarray(u)[..., None]).sum(axis=-1)
    return np.minimum(idx, _last_positive(p)) if idx.max() == cum.shape[-1] else idx


def correlated_signals(idx, g, gamma):
    """Spike indicators S (n, d) given trigger indices idx (n,): S is the
    trigger column of a symmetric Bernoulli matrix C with C_ij ~ Ber(gamma_ij),
    C_ii = 1, whose entries are independent Ber(gamma_idx,j). g (n, d)
    supplies one uniform per coordinate, and S_j = [g_j < gamma_idx,j].

    The trigger itself always spikes because gamma_ii = 1 exceeds any
    uniform in [0, 1)."""
    return (g < gamma[idx]).astype(float)


def probabilities(lam, w):
    """Trigger probabilities lam * w / sum(lam * w) along the last axis."""
    num = lam * w
    return num / num.sum(axis=-1, keepdims=True)


def rescale(w):
    """Scale each row along the last axis by the power of two that brings its
    largest entry into [0.5, 1). The scaling is exact while entries stay
    normal, so probabilities and updates are bit-identical up to the factor."""
    _, exponent = np.frexp(w.max(axis=-1, keepdims=True))
    return np.ldexp(w, -exponent)


def _weight_sums(lam, w):
    """lam * w and its sums along the last axis, after scaling in place by
    `rescale` every row of w whose sum lies outside [2^-256, 2^256]. With lam
    rescaled too, as `_drive` does, neither w nor lam * w can overflow."""
    num = lam * w
    total = num.sum(axis=-1, keepdims=True)
    out = ((total < 2.0**-256) | (total > 2.0**256))[..., 0]
    if out.any():
        w[out] = rescale(w[out])
        num[out] = lam * w[out]
        total[out] = num[out].sum(axis=-1, keepdims=True)
    return num, total


def _gamma_dot(p, gamma):
    """gamma @ p along the last axis of p, summed in numpy's pairwise order
    rather than through BLAS, whose order the compiled step cannot
    reproduce."""
    return (p[..., None, :] * gamma).sum(axis=-1)


def _gap_of(v):
    """v_1 - max_{j>=2} v_j along the last axis."""
    return v[..., 0] - v[..., 1:].max(axis=-1)


def _increments(p, y, gamma):
    """(s, drift, xi) of the probability steps p, y of shape (n, d): s = p.y,
    drift = p (m - p.m) and the martingale increment xi = drift - p (y - s),
    with m = E[Y | p], that is p, or gamma @ p for correlated triggers."""
    s = (p * y).sum(axis=1, keepdims=True)
    m = p if gamma is None else _gamma_dot(p, gamma)
    drift = p * (m - (p * m).sum(axis=1, keepdims=True))
    return s, drift, drift - p * (y - s)


class Recorder:
    """What a run of the segment driver `_drive` reports to: at each of the
    increasing steps `checkpoints` within [0, n_steps], record(k, x) gets
    the batch state after k steps, at each checkpoint once and in order
    (this one writes it to the next row of `states`, an array of shape
    (len(checkpoints), n, d) allocated at the first call). The step also
    advances a recorder that `tracks`, as a `GapTracker` or the joint
    scheme's clip counter."""

    tracks = False

    def __init__(self, checkpoints):
        self.checkpoints = np.asarray(checkpoints, dtype=int)
        self.states, self.filled = None, 0

    def record(self, k, x):
        if self.states is None:
            self.states = np.empty((self.checkpoints.size,) + x.shape)
        self.states[self.filled] = x
        self.filled += 1


class GapTracker(Recorder):
    """The recorder of `theory.run_gap_ensemble` for n probability
    trajectories. Per step it tracks the noise martingales M stopped when
    the gap event ends, the maximal-inequality event `bounded` (every |M_j|
    at or below the threshold at every step so far), the gap event `alive`
    (the half-gap condition held at every step so far; in a run with
    correlated triggers also the half-gap_gamma condition on gamma @ p, with
    the run's gamma) and `ek_violations`, the steps at which the
    maximal-inequality event held but the gap condition failed at the next
    step. At each checkpoint `record` stores M in the next row of
    `martingales`, of shape (len(checkpoints), n, d), and the state in
    `states`, like every `Recorder`.

    `track` is the numpy step's arithmetic, at the rate of the run it
    steps; the compiled step does the same in C on the same arrays."""

    tracks = True

    def __init__(self, n, d, gap, threshold, checkpoints, gap_gamma=0.0):
        super().__init__(checkpoints)
        self.half_gap = gap / 2.0
        self.half_gap_gamma = gap_gamma / 2.0
        self.threshold = threshold
        self.mart = np.zeros((n, d))
        self.bounded = np.ones(n, dtype=bool)
        self.alive = np.ones(n, dtype=bool)
        self.ek_violations = 0
        self.martingales = np.empty((self.checkpoints.size, n, d))

    def record(self, k, p):
        self.martingales[self.filled] = self.mart
        super().record(k, p)

    def track(self, p, y, p_next, alpha, gamma):
        xi = _increments(p, y, gamma)[2]
        self.mart += alpha * xi * self.alive[:, None]
        self.bounded &= (np.abs(self.mart) <= self.threshold).all(axis=1)
        ok = _gap_of(p_next) >= self.half_gap
        if gamma is not None:
            ok &= _gap_of(_gamma_dot(p_next, gamma)) >= self.half_gap_gamma
        self.alive &= ok
        self.ek_violations += int(np.sum(self.bounded & ~self.alive))


def numpy_step(x, alpha, streams, lam, gamma, tracker):
    """The numpy reference of `_kernel.prepare`, with its arguments and its
    results bit for bit, taken when the kernel does not load: returns
    advance(k0, k1), which runs steps k0..k1-1 on the probability rows x in
    place, drawing them from streams a piece at a time (`Streams.segments`).
    The rows stay on the simplex; lam is None, the single-neuron runs having
    no weights."""
    eye_rows = np.eye(x.shape[1])

    def advance(k0, k1):
        for u, z, g in streams.segments(k1 - k0):
            for t in range(u.shape[1]):
                idx = sample_triggers(x, u[:, t])
                sig = eye_rows[idx] if gamma is None else correlated_signals(idx, g[:, t], gamma)
                y = sig + z[:, t]
                x_next = x * (1.0 + alpha * y)
                x_next /= x_next.sum(axis=1, keepdims=True)
                if tracker is not None:
                    tracker.track(x, y, x_next, alpha, gamma)
                x[:] = x_next

    return advance


def simulate(p0, alpha, n_steps, keys, gamma=None, record=None, switch=None):
    """Run one probability trajectory per key in lockstep; returns the final
    probabilities.

    Row i of p0 (n, d) starts trajectory i, which draws from the stream
    `stream_for(keys[i])` in the step order of `Streams`, so a row does not
    depend on the rest of the batch. Step k:

        y = B + Z, B one-hot from p  (the trigger column of C when gamma is given)
        p = p * (1 + alpha * y), divided by its sum

    switch=(k, ratio) switches the intensities before step k: every row is
    multiplied by ratio = lam_b / lam_a and divided by its sum, the
    probabilities of the same weights under lam_b. A checkpoint at k records
    the switched state, and a switch at k >= n_steps does nothing.

    record, a `Recorder`, is called at its checkpoints and may track every
    step, as a `GapTracker` does with the run's gamma. simulate hands the
    segment driver `_drive`, which checks the inputs, its step: the compiled
    `_kernel.prepare` when the kernel loads, otherwise its numpy reference
    `numpy_step`; both give the same results bit for bit.
    """
    step = numpy_step if _kernel.library() is None else _kernel.prepare
    return _drive(step, p0, float(alpha), n_steps, keys, gamma=gamma, record=record,
                  switch=switch)


def _drive(step, state0, alpha, n_steps, keys, lam=None, gamma=None, record=None, switch=None):
    """The segment driver of every learning run, and the one place its
    inputs are checked; returns the final state.

    Each rate must lie in (0, 1/Q), Q = `Q_BOUND`: there 1 + alpha * y stays
    positive for every |y| <= Q. Without
    lam each row of state0 is a probability vector (`as_probability_vector`,
    which may renormalise it); with lam, the joint scheme's intensities, a
    positive (d,) vector, each row is a weight vector (`validate_weights`).
    A switch (probability form only) is a step >= 0 and a positive (d,)
    ratio, gamma a correlation matrix and the checkpoints increasing steps
    in [0, n_steps]. The first failing check raises InvalidInputError.

    step(x, alpha, streams, lam, gamma, tracker) is called once and
    returns advance(k0, k1), which runs steps k0..k1-1 on the rows of x in
    place, drawing from streams (a `Streams` of `keys`) as it steps, and
    advances tracker, the recorder when it `tracks` (else None); a
    `GapTracker` sums its martingales at the run's alpha and checks the gap
    of gamma @ p with the run's checked gamma.
    lam is scaled once by `rescale`, which leaves the probabilities as they
    are; the joint step scales each weight row by a power of two when its
    lam * w sum leaves [2^-256, 2^256], so neither w nor lam * w can
    overflow. The driver cuts the run at the checkpoints, the switch and
    every multiple of `CHUNK`, and hands each segment to advance; the switch
    itself is applied here, between segments, for both paths. A row's draws
    follow its stream in step order, whatever the cuts."""
    check_rates(alpha)
    x = as_float_array(state0, "state")
    if x.ndim != 2 or len(x) < 1 or len(keys) != len(x):
        raise InvalidInputError("%d keys for a state of shape %s; a batch needs at least "
                                "one (n, d) row" % (len(keys), x.shape))
    check_row = as_probability_vector if lam is None else validate_weights
    x = np.array([check_row(row) for row in x], order="C")
    n, d = x.shape
    if n_steps < 0:
        raise InvalidInputError("n_steps must be nonnegative, got %d" % n_steps)
    if lam is not None:
        lam = rescale(_vector_of(lam, d, "intensities"))
    k_switch = n_steps
    if switch is not None:
        k_switch, ratio = int(switch[0]), _vector_of(switch[1], d, "switch ratio")
        if k_switch < 0:
            raise InvalidInputError("switch step must be nonnegative, got %d" % k_switch)
    record = Recorder([]) if record is None else record
    steps = record.checkpoints
    if steps.size and (steps[0] < 0 or steps[-1] > n_steps or np.any(np.diff(steps) <= 0)):
        raise InvalidInputError("checkpoints must be increasing steps in [0, n_steps=%d], "
                                "got %s" % (n_steps, steps.tolist()))
    if gamma is not None:
        gamma = np.ascontiguousarray(validate_correlation(gamma, d))
    # the segment ends in (0, n_steps], each once, and which are checkpoints;
    # both unique, so np.isin skips np.unique, which imports numpy.ma
    cuts = np.sort(np.concatenate([steps, [k_switch, n_steps], np.arange(CHUNK, n_steps, CHUNK)]))
    cuts = cuts[(cuts > 0) & (cuts <= n_steps) & (np.diff(cuts, prepend=-1) > 0)]
    recorded = np.isin(cuts, steps, assume_unique=True)

    def switch_at(k):
        if k == k_switch < n_steps:
            x[:] *= ratio
            x[:] /= x.sum(axis=1, keepdims=True)

    switch_at(0)
    if steps.size and steps[0] == 0:
        record.record(0, x)
    streams = Streams(keys, d, gamma is not None)
    advance = step(x, alpha, streams, lam, gamma, record if record.tracks else None)
    k0 = 0
    for k1, at_checkpoint in zip(cuts.tolist(), recorded):
        advance(k0, k1)
        switch_at(k1)
        if at_checkpoint:
            record.record(k1, x)
        k0 = k1
    return x


def _vector_of(v, d, name):
    """v as a finite, strictly positive (d,) vector (`validate_intensities`)."""
    v = validate_intensities(v)
    if v.shape != (d,):
        raise InvalidInputError("%s must be a (%d,) vector, got shape %s" % (name, d, v.shape))
    return v


def decompose_steps_batch(p, alpha, y, gamma=None):
    """Exact drift / martingale / residual split of a batch of probability
    steps, p and y of shape (n, d):

        p_next = p + alpha * drift - alpha * xi - theta

    With s = p.y and m = E[Y | p] (m = p for independent triggers, m = gamma @ p
    when triggers are correlated through gamma):

        drift_i = p_i (m_i - p.m)
        xi_i    = drift_i - p_i (y_i - s)          (conditionally centered)
        theta_i = alpha^2 p_i s (y_i - s) / (1 + alpha s)   (exact residual)

    and |theta_i| <= theta_bound_i = alpha^2 2 Q^2 / (1 - Q alpha)^3 p_i (1 - p_i)
    almost surely, Q = `Q_BOUND`. Returns (drift, xi, theta, theta_bound, p_next)."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    s, drift, xi = _increments(p, y, None if gamma is None else np.asarray(gamma, dtype=float))
    theta = alpha * alpha * p * s * (y - s) / (1.0 + alpha * s)
    bound = alpha * alpha * 2.0 * Q_BOUND * Q_BOUND / (1.0 - Q_BOUND * alpha) ** 3 * p * (1.0 - p)
    num = p * (1.0 + alpha * y)
    p_next = num / num.sum(axis=1, keepdims=True)
    return drift, xi, theta, bound, p_next


def validate_correlation(gamma, d):
    """Validate a trigger-correlation matrix for d coordinates: shape (d, d),
    symmetric, unit diagonal, off-diagonal entries in [0, 1]."""
    g = as_float_array(gamma, "correlation matrix")
    if g.shape != (d, d):
        raise InvalidInputError("correlation matrix must be %d x %d, got shape %s"
                                % (d, d, g.shape))
    if not np.allclose(g, g.T, atol=0.0):
        raise InvalidInputError("correlation matrix must be symmetric")
    if not np.all(np.diag(g) == 1.0):
        raise InvalidInputError("correlation matrix needs unit diagonal")
    off = g[~np.eye(g.shape[0], dtype=bool)]
    if np.any(off < 0) or np.any(off > 1):
        raise InvalidInputError("off-diagonal entries must lie in [0, 1]")
    return g


@dataclass
class DynamicsConfig:
    """Configuration for a probability trajectory of the stochastic
    dynamics from p0. Triggers are correlated through gamma when it is given
    and independent otherwise."""

    alpha: float
    n_steps: int
    p0: object
    gamma: object = None
    record_stride: int = 1


@dataclass
class TrajectoryRecord:
    """Recorded trajectory: states[i] is p at step recorded_steps[i]."""

    recorded_steps: np.ndarray
    states: np.ndarray


def final_probabilities(config, keys):
    """Final probabilities of the trajectories keyed by `keys`, run as one
    batch; row i equals `run_trajectory(config, keys[i]).states[-1]`."""
    p0 = as_float_array(config.p0, "p0")
    return simulate(np.repeat(p0[None], len(keys), axis=0), config.alpha, config.n_steps, keys,
                    gamma=config.gamma)


def run_trajectory(config, seed):
    """Run one seeded trajectory of the configured dynamics and record it.

    The trajectory is the batch-of-one run of `simulate` on stream key seed,
    so it equals member `seed` of any batched run of the same config."""
    recorder = Recorder(recorded_steps(config.n_steps, config.record_stride))
    simulate(as_float_array(config.p0, "p0")[None], config.alpha, config.n_steps, [seed],
             gamma=config.gamma, record=recorder)
    return TrajectoryRecord(recorded_steps=recorder.checkpoints, states=recorder.states[:, 0])
