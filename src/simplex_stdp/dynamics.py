"""Stochastic multiplicative learning dynamics on weights and probabilities.

One step draws a one-hot trigger B ~ Multinomial(1, p), a centered bounded
noise vector Z, and moves weights multiplicatively,
w <- w * (1 + alpha * (B + Z)); the induced probabilities follow
p <- p * (1 + alpha * Y) / (p . (1 + alpha * Y)) with Y = B + Z.

`simulate` is the one stepping kernel: it runs a batch of keyed trajectories
in lockstep, in probability or weight coordinates, with independent or
correlated triggers and constant or switched intensities.
The module also provides the exact drift / martingale / residual split of a
probability step and a seeded, recorded single-trajectory runner.
"""

import bisect
import functools
from dataclasses import dataclass, field

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

# Number of steps in the stream layout of one chunk (see `Streams`). Every
# runner consumes streams in these chunks, so a trajectory is reproducible
# from its key alone regardless of batching.
CHUNK = 65536


@dataclass(frozen=True)
class NoiseModel:
    """Centered noise Z, Unif[-half_width, half_width] entrywise, with the
    stated bound |Z| <= q_bound - 1 that the theorems and the rate check use.

    The default is Unif[-1, 1] (q_bound = 2)."""

    half_width: float = 1.0
    q_bound: float = 2.0

    def __post_init__(self):
        if self.q_bound <= 1.0:
            raise InvalidInputError("q_bound must exceed 1")
        if not (0.0 < self.half_width <= self.q_bound - 1.0):
            raise InvalidInputError("half_width must lie in (0, q_bound - 1]")

    def sample(self, rng, size):
        return rng.uniform(-self.half_width, self.half_width, size)


def stream_for(seed):
    """Deterministic generator for a trajectory key (int or tuple of ints)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class Streams:
    """The draws of a batch, row i from the stream `stream_for(keys[i])`.

    Per chunk of m steps a row's stream yields m trigger uniforms, then
    m x d noise values (`noise.sample`), then m x n_pairs pair uniforms.
    `position(m)` sets the readers of each row, copies of its stream
    advanced to the offsets 0, m and m(1 + d) of the chunk (the last only
    with pairs), and moves the stream past the chunk. A step then reads each
    kind of draw in step order from its reader: the compiled step through
    the bit generators' state `addresses` (n, 3; 0 for no reader) and their
    shared `next_double`, the numpy steps through `segment`. Nothing larger
    than one segment's draws is held."""

    def __init__(self, keys, d, noise, n_pairs=0):
        import ctypes

        self.d, self.noise, self.n_pairs = d, noise, n_pairs
        self.streams = [stream_for(key).bit_generator for key in keys]
        kinds = 3 if n_pairs else 2
        # readers are positioned before every chunk, so this seed is never read
        seed = np.random.SeedSequence(0)
        self.readers = [[np.random.Generator(np.random.PCG64(seed)) for _ in range(kinds)]
                        for _ in keys]
        self.addresses = np.zeros((len(keys), 3), dtype=np.uintp)
        self.addresses[:, :kinds] = [[r.bit_generator.ctypes.state_address for r in row]
                                     for row in self.readers]
        self.next_double = ctypes.cast(self.readers[0][0].bit_generator.ctypes.next_double,
                                       ctypes.c_void_p).value

    def position(self, m):
        offsets = (0, m, m * (1 + self.d))
        for stream, row in zip(self.streams, self.readers):
            state = stream.state
            for reader, offset in zip(row, offsets):
                reader.bit_generator.state = state
                reader.bit_generator.advance(offset)
            stream.advance(m * (1 + self.d + self.n_pairs))

    def segment(self, s):
        """The draws of the next s steps of every row: u (n, s), z (n, s, d)
        and gu (n, s, n_pairs), None without pairs."""
        n = len(self.readers)
        u, z = np.empty((n, s)), np.empty((n, s, self.d))
        gu = np.empty((n, s, self.n_pairs)) if self.n_pairs else None
        for i, row in enumerate(self.readers):
            u[i] = row[0].random(s)
            z[i] = self.noise.sample(row[1], (s, self.d))
            if gu is not None:
                gu[i] = row[2].random((s, self.n_pairs))
        return u, z, gu


def _rates(alpha):
    """alpha for a message: a rate, or the joint scheme's column of rates
    printed flat."""
    a = np.asarray(alpha, dtype=float)
    return np.array2string(a.ravel() if a.ndim > 1 else a)


def check_finite(x, k, alpha):
    """Raise unless the state x after k steps is finite."""
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("state not finite after %d steps (alpha=%s too large for "
                                "this horizon)" % (k, _rates(alpha)))


def _last_positive(p):
    """Index of the last strictly positive entry along the last axis."""
    p = np.asarray(p)
    return p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)


def sample_triggers(p, u, top=None):
    """Trigger indices by inverse CDF along the last axis of p: the number of
    cumulative sums at or below u (searchsorted with side="right"), capped
    at top.

    A zero entry repeats the previous cumulative sum, so it is never picked;
    the cap catches u at or above a total that rounding left below 1. top
    defaults to the last positive entry of p; callers whose zero entries stay
    zero may pass it precomputed."""
    cum = np.cumsum(p, axis=-1)
    idx = (cum <= np.asarray(u)[..., None]).sum(axis=-1)
    return np.minimum(idx, _last_positive(p) if top is None else top)


@functools.lru_cache(maxsize=None)
def _pair_index(d):
    """(d, d) table of the lexicographic number of each unordered pair i<j;
    the diagonal points at pair 0."""
    i, j = np.triu_indices(d, 1)
    table = np.zeros((d, d), dtype=int)
    table[i, j] = table[j, i] = np.arange(i.size)
    return table


def correlated_signals(idx, gu, gamma):
    """Spike indicators S (n, d) given trigger indices idx (n,): S is the
    trigger column of a symmetric Bernoulli matrix C with C_ij ~ Ber(gamma_ij),
    C_ii = 1. gu (n, d(d-1)/2) supplies one uniform per unordered pair (i<j),
    in lexicographic pair order.

    The trigger itself always spikes because gamma_ii = 1 exceeds any
    uniform in [0, 1)."""
    rows = np.arange(idx.size)[:, None]
    return (gu[rows, _pair_index(gamma.shape[0])[idx]] < gamma[idx]).astype(float)


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


def _gamma_dot(p, gamma):
    """gamma @ p for each row of p, summed in numpy's pairwise order rather
    than through BLAS, whose order the compiled step cannot reproduce."""
    return (p[:, None, :] * gamma).sum(axis=-1)


def _gap_of(v):
    return v[:, 0] - v[:, 1:].max(axis=1)


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
    the batch state after k steps (this one keeps a copy in `states`). The
    step also advances a recorder that `tracks`, as a `GapTracker` or the
    joint scheme's clip counter."""

    tracks = False

    def __init__(self, checkpoints):
        self.checkpoints = np.asarray(checkpoints, dtype=int)
        self.states = []

    def record(self, k, x):
        self.states.append(x.copy())


class GapTracker(Recorder):
    """The recorder of `theory.run_gap_ensemble` for n probability
    trajectories. Per step it tracks the noise martingales M stopped when
    the gap event ends, the running maxima of |M_j|, the gap event `alive`
    (the half-gap condition held at every step so far; in a run with
    correlated triggers also the half-gap_gamma condition on gamma @ p, with
    the run's gamma) and `ek_violations`, the steps at which the
    maximal-inequality event held but the gap condition failed at the next
    step. At each checkpoint `record` stores p[:, 0], the tail mass
    sum_{j>=2} p_j (so the L1 error 2 * tail stays representable after
    1 - p_1 rounds to 0) and M.

    `track` is the numpy step's arithmetic; the compiled step does the same
    in C on the same arrays."""

    tracks = True

    def __init__(self, n, d, alpha, gap, threshold, checkpoints, gap_gamma=0.0):
        super().__init__(checkpoints)
        self.alpha = alpha
        self.half_gap = gap / 2.0
        self.half_gap_gamma = gap_gamma / 2.0
        self.threshold = threshold
        self.mart = np.zeros((n, d))
        self.max_abs = np.zeros((n, d))
        self.alive = np.ones(n, dtype=bool)
        self.ek_violations = 0
        self.p1_checkpoints = np.empty((n, self.checkpoints.size))
        self.tail_checkpoints = np.empty((n, self.checkpoints.size))
        self.martingale_checkpoints = np.empty((n, d, self.checkpoints.size))

    def record(self, k, p):
        pos = np.searchsorted(self.checkpoints, k)
        self.p1_checkpoints[:, pos] = p[:, 0]
        self.tail_checkpoints[:, pos] = p[:, 1:].sum(axis=1)
        self.martingale_checkpoints[:, :, pos] = self.mart

    def track(self, p, y, p_next, gamma):
        xi = _increments(p, y, gamma)[2]
        self.mart += self.alpha * xi * self.alive[:, None]
        np.maximum(self.max_abs, np.abs(self.mart), out=self.max_abs)
        e_now = (self.max_abs <= self.threshold).all(axis=1)
        ok = _gap_of(p_next) >= self.half_gap
        if gamma is not None:
            ok &= _gap_of(_gamma_dot(p_next, gamma)) >= self.half_gap_gamma
        self.alive &= ok
        self.ek_violations += int(np.sum(e_now & ~self.alive))


def numpy_step(x, alpha, streams, top, lams, gamma, tracker):
    """The numpy reference of `_kernel.prepare`, with its arguments and its
    results bit for bit, taken when the kernel does not load: returns
    advance(k0, k1, piece), which runs steps k0..k1-1 on the state x in
    place under the intensities lams[piece], drawing them from streams one
    segment at a time. In the weight form it stops at the first state that
    is not finite and returns the number of steps after which it was
    reached, or None; a probability state stays on the simplex."""
    eye_rows = np.eye(x.shape[1])

    def advance(k0, k1, piece):
        lam = lams[piece]
        u, z, gu = streams.segment(k1 - k0)
        for t in range(k1 - k0):
            p = x if lam is None else probabilities(lam, x)
            idx = sample_triggers(p, u[:, t], top)
            sig = eye_rows[idx] if gamma is None else correlated_signals(idx, gu[:, t], gamma)
            y = sig + z[:, t]
            x_next = x * (1.0 + alpha * y)
            if lam is None:
                x_next /= x_next.sum(axis=1, keepdims=True)
            if tracker is not None:
                tracker.track(p, y, x_next, gamma)
            x[:] = x_next
            if lam is not None and not np.isfinite(x_next).all():
                return k0 + t + 1
        return None

    return advance


def _intensities(lam, d):
    """(starts, vectors) of lam: None, a (d,) vector, or piecewise-constant
    [(from_step, vector), ...] from step 0 in nondecreasing steps."""
    if lam is None:
        return [0], [None]
    pieces = lam if isinstance(lam, list) and lam and isinstance(lam[0], tuple) else [(0, lam)]
    starts = [int(s) for s, _ in pieces]
    vectors = [np.ascontiguousarray(validate_intensities(v)) for _, v in pieces]
    if starts[0] != 0 or starts != sorted(starts) or any(v.shape != (d,) for v in vectors):
        raise InvalidInputError("intensities must be a (%d,) vector or [(from_step, vector), "
                                "...] from step 0 in nondecreasing steps" % d)
    return starts, vectors


def simulate(state0, alpha, n_steps, keys, noise, lam=None, gamma=None, record=None):
    """Run one trajectory per key in lockstep; returns the final states.

    state0 (n, d) holds probabilities when lam is None and weights otherwise;
    lam is an intensity vector, or piecewise-constant intensities
    [(from_step, vector), ...] whose last entry with from_step <= k is in
    force at step k (a switch; of two entries at one step the later wins).
    Row i draws from the stream `stream_for(keys[i])` in the layout of
    `Streams`, so a row does not depend on the rest of the batch. Step k:

        p = state                    (probability form)
        p = lam_k * w / sum          (weight form)
        y = B + Z, B one-hot from p  (the trigger column of C when gamma is given)
        w = state * (1 + alpha * y), renormalised to p in the probability form

    record, a `Recorder`, is called at its checkpoints and may track every
    step, as a `GapTracker` does with the run's gamma. simulate hands the
    segment driver `_drive`, which checks the inputs, its step: the compiled
    `_kernel.prepare` when the kernel loads, otherwise its numpy reference
    `numpy_step`; both give the same results bit for bit. The driver scales
    each weight row by a power of two between chunks, so returned weights
    are defined up to that factor per row.
    """
    step = numpy_step if _kernel.library() is None else _kernel.prepare
    return _drive(step, state0, float(alpha), n_steps, keys, noise, lam, gamma, record)


def _drive(step, state0, alpha, n_steps, keys, noise, lam=None, gamma=None, record=None):
    """The segment driver of every learning run, and the one place its
    inputs are checked; returns the final state.

    Each rate must lie in (0, 1/Q), the range in which the update factor
    1 + alpha * y stays positive for all admissible Y. Each row of state0 is
    a probability vector (`as_probability_vector`, which may renormalise
    it) when lam is None and a weight vector (`validate_weights`)
    otherwise; each intensity piece is a positive (d,) vector, gamma a
    correlation matrix and the checkpoints increasing steps in [0, n_steps].
    The first failing check raises InvalidInputError.

    step(x, alpha, streams, top, lams, gamma, tracker) is called once
    and returns advance(k0, k1, piece), which runs steps k0..k1-1 on the
    rows of x in place under the intensities lams[piece], drawing from
    streams (a `Streams` of `keys`) as it steps, and advances tracker, the
    recorder when it `tracks` (else None); a `GapTracker` checks the gap of
    gamma @ p with the run's checked gamma. advance may return the step
    after which a row first is not finite, where the run stops. Per chunk of
    `CHUNK` steps the driver positions the streams, splits the chunk at the
    checkpoints and intensity switches, hands every segment to advance,
    checks x after the chunk and, in the weight form, scales each row by a
    power of two. No randomness is drawn ahead of its segment."""
    a = np.asarray(alpha, dtype=float)
    if not np.all((a > 0) & (a < 1.0 / noise.q_bound)):
        raise InvalidInputError("alpha=%s outside (0, 1/Q)=(0, %g)"
                                % (_rates(alpha), 1.0 / noise.q_bound))
    x = as_float_array(state0, "state")
    if x.ndim != 2 or len(x) < 1 or len(keys) != len(x):
        raise InvalidInputError("%d keys for a state of shape %s; a batch needs at least "
                                "one (n, d) row" % (len(keys), x.shape))
    check_row = as_probability_vector if lam is None else validate_weights
    x = np.array([check_row(row) for row in x], order="C")
    n, d = x.shape
    if n_steps < 0:
        raise InvalidInputError("n_steps must be nonnegative, got %d" % n_steps)
    starts, vectors = _intensities(lam, d)
    record = Recorder([]) if record is None else record
    steps = record.checkpoints
    if steps.size and (steps[0] < 0 or steps[-1] > n_steps or np.any(np.diff(steps) <= 0)):
        raise InvalidInputError("checkpoints must be increasing steps in [0, n_steps=%d], "
                                "got %s" % (n_steps, steps.tolist()))
    if gamma is not None:
        gamma = np.ascontiguousarray(validate_correlation(gamma, d))
    n_pairs = 0 if gamma is None else d * (d - 1) // 2
    stops = set(steps.tolist())
    cuts = sorted(stops.union(starts[1:]))
    if 0 in stops:
        record.record(0, x)
    streams = Streams(keys, d, noise, n_pairs)
    # zero entries stay exactly zero, so the last pickable coordinate is fixed
    top = _last_positive(x)
    advance = step(x, alpha, streams, top, vectors, gamma, record if record.tracks else None)
    # in the weight form, weights past the float range (and their NaN
    # probabilities) are what stops the run: the numpy steps compute them
    # without a warning, as the compiled steps do
    quiet = None if lam is None else "ignore"
    k = 0
    with np.errstate(over=quiet, invalid=quiet):
        while k < n_steps:
            m = min(CHUNK, n_steps - k)
            streams.position(m)
            k0 = k
            for k1 in [c for c in cuts if k < c < k + m] + [k + m]:
                stop = advance(k0, k1, bisect.bisect_right(starts, k0) - 1)
                if stop is not None:
                    check_finite(x, stop, alpha)
                if k1 in stops:
                    record.record(k1, x)
                k0 = k1
            k += m
            check_finite(x, k, alpha)
            if lam is not None and k < n_steps:
                # in place: the step holds x
                x[:] = rescale(x)
    return x


def decompose_steps_batch(p, alpha, y, gamma=None, q_bound=2.0):
    """Exact drift / martingale / residual split of a batch of probability
    steps, p and y of shape (n, d):

        p_next = p + alpha * drift - alpha * xi - theta

    With s = p.y and m = E[Y | p] (m = p for independent triggers, m = gamma @ p
    when triggers are correlated through gamma):

        drift_i = p_i (m_i - p.m)
        xi_i    = drift_i - p_i (y_i - s)          (conditionally centered)
        theta_i = alpha^2 p_i s (y_i - s) / (1 + alpha s)   (exact residual)

    and |theta_i| <= theta_bound_i = alpha^2 2 Q^2 / (1 - Q alpha)^3 p_i (1 - p_i)
    almost surely. Returns (drift, xi, theta, theta_bound, p_next)."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    s, drift, xi = _increments(p, y, None if gamma is None else np.asarray(gamma, dtype=float))
    theta = alpha * alpha * p * s * (y - s) / (1.0 + alpha * s)
    qa = q_bound * alpha
    bound = alpha * alpha * 2.0 * q_bound * q_bound / (1.0 - qa) ** 3 * p * (1.0 - p)
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
    """Configuration for a trajectory of the stochastic dynamics.

    Supply p0 for the probability form, or intensities lam and initial
    weights w0 to track weights. Triggers are correlated through gamma when
    it is given and independent otherwise.
    """

    alpha: float
    n_steps: int
    p0: object = None
    lam: object = None
    w0: object = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    gamma: object = None
    record_stride: int = 1

    def kernel_inputs(self):
        """(state0, lam, gamma) for `simulate`, which checks them: p0 in the
        probability form when given, otherwise weights w0 and lam."""
        if self.p0 is not None:
            return as_float_array(self.p0, "p0"), None, self.gamma
        if self.lam is None or self.w0 is None:
            raise InvalidInputError("need either p0 or (lam, w0)")
        return as_float_array(self.w0, "w0"), as_float_array(self.lam, "lam"), self.gamma


@dataclass
class TrajectoryRecord:
    """Recorded trajectory: states[i] is p at step recorded_steps[i].

    weights[i] (weight form only) is defined up to a power-of-two factor,
    since `simulate` rescales the weights between chunks."""

    recorded_steps: np.ndarray
    states: np.ndarray
    weights: np.ndarray = None
    seed: object = None


def final_probabilities(config, keys):
    """Final probabilities of the trajectories keyed by `keys`, run as one
    batch; row i equals `run_trajectory(config, keys[i]).states[-1]`."""
    x0, lam, gamma = config.kernel_inputs()
    x = simulate(np.repeat(x0[None], len(keys), axis=0), config.alpha, config.n_steps, keys,
                 config.noise, lam=lam, gamma=gamma)
    return x if lam is None else probabilities(lam, x)


def run_trajectory(config, seed):
    """Run one seeded trajectory of the configured dynamics and record it.

    The trajectory is the batch-of-one run of `simulate` on stream key seed,
    so it equals member `seed` of any batched run of the same config."""
    x0, lam, gamma = config.kernel_inputs()
    n = config.n_steps
    recorder = Recorder(recorded_steps(n, config.record_stride))
    simulate(x0[None], config.alpha, n, [seed], config.noise, lam=lam, gamma=gamma,
             record=recorder)
    x = np.concatenate(recorder.states)
    return TrajectoryRecord(
        recorded_steps=recorder.checkpoints,
        states=x if lam is None else probabilities(lam, x),
        weights=None if lam is None else x,
        seed=seed,
    )
