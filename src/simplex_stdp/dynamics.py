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
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .simplex import (
    InvalidInputError,
    as_probability_vector,
    probabilities_from_weights,
    recorded_steps,
    validate_intensities,
    validate_weights,
)

# Number of steps worth of random numbers drawn from a stream at a time.
# Every runner consumes streams in these chunks, so a trajectory is
# reproducible from its key alone regardless of batching.
CHUNK = 65536


@dataclass(frozen=True)
class NoiseModel:
    """Centered noise Z with entries in [-(q_bound - 1), q_bound - 1].

    The default is Unif[-1, 1] entrywise (q_bound = 2). A custom bounded
    sampler may be supplied; it receives (rng, size) and must respect the
    stated support and have zero mean.
    """

    kind: str = "uniform-symmetric"
    half_width: float = 1.0
    q_bound: float = 2.0
    sampler: object = None

    def __post_init__(self):
        if self.q_bound <= 1.0:
            raise InvalidInputError("q_bound must exceed 1")
        if not (0.0 < self.half_width <= self.q_bound - 1.0):
            raise InvalidInputError("half_width must lie in (0, q_bound - 1]")
        if self.kind not in ("uniform-symmetric", "custom-bounded"):
            raise InvalidInputError("unknown noise kind %r" % self.kind)
        if self.kind == "custom-bounded" and self.sampler is None:
            raise InvalidInputError("custom-bounded noise needs a sampler")

    def sample(self, rng, size):
        if self.kind == "uniform-symmetric":
            return rng.uniform(-self.half_width, self.half_width, size)
        z = np.asarray(self.sampler(rng, size), dtype=float)
        if np.any(np.abs(z) > self.q_bound - 1.0 + 1e-12):
            raise InvalidInputError("custom sampler left the stated support")
        return z


def check_rate(alpha, q_bound):
    """Raise unless every rate in alpha lies in (0, 1/Q), the range in which
    the update factor 1 + alpha * y stays positive for all admissible Y."""
    a = np.asarray(alpha, dtype=float)
    if not np.all((a > 0) & (a < 1.0 / q_bound)):
        raise InvalidInputError(
            "alpha=%s outside (0, 1/Q)=(0, %g)" % (np.array2string(a), 1.0 / q_bound)
        )


def stream_for(seed):
    """Deterministic generator for a trajectory key (int or tuple of ints)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def draw_chunk(rngs, m, d, noise, n_pairs=0):
    """The next m steps of randomness of every stream, drawn per stream in a
    fixed order: m trigger uniforms, then (m, d) noise, then (m, n_pairs)
    correlation uniforms. Returns (u, z, gu) with a leading stream axis; gu
    is None when n_pairs is 0."""
    n = len(rngs)
    u = np.empty((n, m))
    z = np.empty((n, m, d))
    gu = np.empty((n, m, n_pairs)) if n_pairs else None
    for i, rng in enumerate(rngs):
        u[i] = rng.random(m)
        z[i] = noise.sample(rng, (m, d))
        if n_pairs:
            gu[i] = rng.random((m, n_pairs))
    return u, z, gu


def check_finite(x, k, alpha):
    """Raise unless the state x after k steps is finite."""
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(
            "state not finite after %d steps (alpha=%s too large for this horizon)"
            % (k, alpha)
        )


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


class Recorder:
    """What a `simulate` run reports to: at each of the increasing steps
    `checkpoints` within [0, n_steps], record(k, x) gets the batch state
    after k steps (this one keeps a copy in `states`). The step writes y of
    every step into `samples` when that is an (n, n_steps, d) array, and
    also advances a recorder that `tracks`, as a `GapTracker` does."""

    tracks = False

    def __init__(self, checkpoints, samples=None):
        self.checkpoints = np.asarray(checkpoints, dtype=int)
        self.samples = samples
        self.states = []

    def record(self, k, x):
        self.states.append(x.copy())


class GapTracker(Recorder):
    """The recorder of `theory.run_gap_ensemble` for n probability
    trajectories. Per step it tracks the noise martingales M stopped when
    the gap event ends, the running maxima of |M_j|, the gap event `alive`
    (the half-gap condition, also on gamma @ p when correlated, held at
    every step so far) and `ek_violations`, the steps at which the
    maximal-inequality event held but the gap condition failed at the next
    step. At each checkpoint `record` stores p[:, 0] and M.

    `track` is the numpy step's arithmetic; the compiled step does the same
    in C on the same arrays."""

    tracks = True

    def __init__(self, n, d, alpha, gap, threshold, checkpoints, gamma=None, gap_gamma=0.0):
        super().__init__(checkpoints)
        self.alpha = alpha
        self.half_gap = gap / 2.0
        self.half_gap_gamma = gap_gamma / 2.0
        self.threshold = threshold
        self.gamma = None if gamma is None else np.ascontiguousarray(gamma, dtype=float)
        self.mart = np.zeros((n, d))
        self.max_abs = np.zeros((n, d))
        self.alive = np.ones(n, dtype=bool)
        self.ek_violations = 0
        self.p1_checkpoints = np.empty((n, self.checkpoints.size))
        self.martingale_checkpoints = np.empty((n, d, self.checkpoints.size))

    def record(self, k, p):
        pos = np.searchsorted(self.checkpoints, k)
        self.p1_checkpoints[:, pos] = p[:, 0]
        self.martingale_checkpoints[:, :, pos] = self.mart

    def track(self, p, y, p_next):
        gamma = self.gamma
        s = (p * y).sum(axis=1, keepdims=True)
        mean_y = p if gamma is None else _gamma_dot(p, gamma)
        drift = p * (mean_y - (p * mean_y).sum(axis=1, keepdims=True))
        xi = drift - p * (y - s)
        self.mart += self.alpha * xi * self.alive[:, None]
        np.maximum(self.max_abs, np.abs(self.mart), out=self.max_abs)
        e_now = (self.max_abs <= self.threshold).all(axis=1)
        ok = _gap_of(p_next) >= self.half_gap
        if gamma is not None:
            ok &= _gap_of(_gamma_dot(p_next, gamma)) >= self.half_gap_gamma
        self.alive &= ok
        self.ek_violations += int(np.sum(e_now & ~self.alive))


def numpy_step(x, alpha, t0, t1, u, z, gu, top, lam=None, gamma=None, pair=None, tracker=None,
               y_out=None):
    """Steps t0..t1-1 of the chunk (u, z, gu) on the state x in place: the
    numpy reference of `_kernel.advance`, with its arguments (pair unused)
    and its results bit for bit, taken when the kernel does not load."""
    eye_rows = np.eye(x.shape[1])
    for t in range(t0, t1):
        p = x if lam is None else probabilities(lam, x)
        idx = sample_triggers(p, u[:, t], top)
        sig = eye_rows[idx] if gamma is None else correlated_signals(idx, gu[:, t], gamma)
        y = sig + z[:, t]
        x_next = x * (1.0 + alpha * y)
        if lam is None:
            x_next /= x_next.sum(axis=1, keepdims=True)
        if tracker is not None:
            tracker.track(p, y, x_next)
        if y_out is not None:
            y_out[:, t] = y
        x[:] = x_next


def _intensities(lam, d):
    """(starts, vectors) of lam: None, a (d,) vector, or piecewise-constant
    [(from_step, vector), ...] from step 0 in nondecreasing steps."""
    if lam is None:
        return [0], [None]
    pieces = lam if isinstance(lam, list) and lam and isinstance(lam[0], tuple) else [(0, lam)]
    starts = [int(s) for s, _ in pieces]
    vectors = [np.ascontiguousarray(v, dtype=float) for _, v in pieces]
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
    Row i consumes the stream `stream_for(keys[i])` through `draw_chunk`, so
    a row does not depend on the rest of the batch. Step k:

        p = state                    (probability form)
        p = lam_k * w / sum          (weight form)
        y = B + Z, B one-hot from p  (the trigger column of C when gamma is given)
        w = state * (1 + alpha * y), renormalised to p in the probability form

    record, a `Recorder`, is called at its checkpoints and may collect y or
    track every step. Each chunk is split into segments at the checkpoints
    and the intensity switches, and every segment goes to one step: the
    compiled `_kernel.advance` when the kernel loads, otherwise its numpy
    reference `numpy_step`; both give the same results bit for bit.
    The state is checked for non-finite values after every chunk, and
    between chunks each weight row is scaled by a power of two (`rescale`),
    so returned weights are defined up to that factor per row.
    """
    check_rate(alpha, noise.q_bound)
    alpha = float(alpha)
    x = np.array(state0, dtype=float, order="C")
    n, d = x.shape
    if n < 1 or len(keys) != n:
        raise InvalidInputError("%d keys for %d trajectories; a batch needs at least one"
                                % (len(keys), n))
    if n_steps < 0:
        raise InvalidInputError("n_steps must be nonnegative, got %d" % n_steps)
    starts, vectors = _intensities(lam, d)
    record = Recorder([]) if record is None else record
    steps = record.checkpoints
    if steps.size and (steps[0] < 0 or steps[-1] > n_steps or np.any(np.diff(steps) <= 0)):
        raise InvalidInputError("checkpoints must be increasing steps in [0, n_steps=%d], "
                                "got %s" % (n_steps, steps.tolist()))
    if gamma is not None:
        gamma = np.ascontiguousarray(validate_correlation(gamma))
    n_pairs = 0 if gamma is None else d * (d - 1) // 2
    pair = None if gamma is None else _pair_index(d)
    step = numpy_step if _kernel.library() is None else _kernel.advance
    tracker = record if record.tracks else None
    stops = set(steps.tolist())
    cuts = sorted(stops.union(starts[1:]))
    if 0 in stops:
        record.record(0, x)
    rngs = [stream_for(key) for key in keys]
    # zero entries stay exactly zero, so the last pickable coordinate is fixed
    top = _last_positive(x)
    k = 0
    while k < n_steps:
        m = min(CHUNK, n_steps - k)
        u, z, gu = draw_chunk(rngs, m, d, noise, n_pairs)
        y_out = None if record.samples is None else np.empty((n, m, d))
        t0 = 0
        for t1 in [c - k for c in cuts if k < c < k + m] + [m]:
            lam_t = vectors[bisect.bisect_right(starts, k + t0) - 1]
            step(x, alpha, t0, t1, u, z, gu, top, lam_t, gamma, pair, tracker, y_out)
            if k + t1 in stops:
                record.record(k + t1, x)
            t0 = t1
        if y_out is not None:
            record.samples[:, k:k + m] = y_out
        k += m
        check_finite(x, k, alpha)
        if lam is not None and k < n_steps:
            x = rescale(x)
    return x


def step_weights(w, alpha, y):
    """Multiplicative weight update w * (1 + alpha * y)."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    if alpha <= 0:
        raise InvalidInputError("alpha must be positive")
    factors = 1.0 + alpha * y
    if np.any(factors <= 0):
        raise InvalidInputError("update factor not positive; alpha too large for this noise")
    return w * factors


def step_probabilities(p, alpha, y):
    """Probability update p * (1 + alpha y) / (p . (1 + alpha y)).

    Zero entries stay exactly zero and the output sums to 1 up to rounding."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    num = p * (1.0 + alpha * y)
    denom = num.sum()
    if denom <= 0:
        raise InvalidInputError("step denominator not positive")
    return num / denom


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
    m = p if gamma is None else p @ np.asarray(gamma, dtype=float).T
    s = (p * y).sum(axis=1, keepdims=True)
    pm = (p * m).sum(axis=1, keepdims=True)
    drift = p * (m - pm)
    xi = drift - p * (y - s)
    theta = alpha * alpha * p * s * (y - s) / (1.0 + alpha * s)
    qa = q_bound * alpha
    bound = alpha * alpha * 2.0 * q_bound * q_bound / (1.0 - qa) ** 3 * p * (1.0 - p)
    num = p * (1.0 + alpha * y)
    p_next = num / num.sum(axis=1, keepdims=True)
    return drift, xi, theta, bound, p_next


def validate_correlation(gamma):
    """Validate a trigger-correlation matrix: symmetric, unit diagonal,
    off-diagonal entries in [0, 1]."""
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidInputError("correlation matrix must be square")
    if not np.allclose(g, g.T, atol=0.0):
        raise InvalidInputError("correlation matrix must be symmetric")
    if not np.all(np.diag(g) == 1.0):
        raise InvalidInputError("correlation matrix needs unit diagonal")
    off = g[~np.eye(g.shape[0], dtype=bool)]
    if np.any(off < 0) or np.any(off > 1):
        raise InvalidInputError("off-diagonal entries must lie in [0, 1]")
    return g


def step_inhomogeneous(w, lam_next, alpha, y):
    """Weight update under time-varying intensities: weights move as usual and
    the next probabilities are read out with the next intensity vector.

    Returns (w_next, p_next)."""
    w_next = step_weights(w, alpha, y)
    return w_next, probabilities_from_weights(lam_next, w_next)


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
    record_samples: bool = False

    def validated(self):
        errors = []
        try:
            check_rate(self.alpha, self.noise.q_bound)
        except InvalidInputError as exc:
            errors.append(str(exc))
        if self.n_steps < 0:
            errors.append("n_steps must be nonnegative")
        if self.record_stride < 1:
            errors.append("record_stride must be >= 1")
        if self.p0 is None and (self.lam is None or self.w0 is None):
            errors.append("need either p0 or (lam, w0)")
        if errors:
            raise InvalidInputError("; ".join(errors))
        return self

    def kernel_inputs(self):
        """(state0, lam, gamma) for `simulate` from the validated config: p0
        in the probability form when given, otherwise weights w0 and lam."""
        self.validated()
        if self.p0 is not None:
            return as_probability_vector(self.p0), None, self.gamma
        return validate_weights(self.w0), validate_intensities(self.lam), self.gamma

    def digest(self):
        payload = {
            "alpha": self.alpha,
            "n_steps": self.n_steps,
            "p0": None if self.p0 is None else list(np.asarray(self.p0, dtype=float)),
            "lam": None if self.lam is None else list(np.asarray(self.lam, dtype=float)),
            "w0": None if self.w0 is None else list(np.asarray(self.w0, dtype=float)),
            "noise": [self.noise.kind, self.noise.half_width, self.noise.q_bound],
            "gamma": None if self.gamma is None else np.asarray(self.gamma, dtype=float).tolist(),
            "record_stride": self.record_stride,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class TrajectoryRecord:
    """Recorded trajectory: states[i] is p at step recorded_steps[i].

    weights[i] (weight form only) is defined up to a power-of-two factor,
    since `simulate` rescales the weights between chunks."""

    recorded_steps: np.ndarray
    states: np.ndarray
    weights: np.ndarray = None
    y_samples: np.ndarray = None
    seed: object = None
    config_digest: str = ""


def final_probabilities(config, keys):
    """Final probabilities of the trajectories keyed by `keys`, run as one
    batch; row i equals `run_trajectory(config, keys[i]).states[-1]`."""
    x0, lam, gamma = config.kernel_inputs()
    x = simulate(np.tile(x0, (len(keys), 1)), config.alpha, config.n_steps, keys,
                 config.noise, lam=lam, gamma=gamma)
    return x if lam is None else probabilities(lam, x)


def run_trajectory(config, seed):
    """Run one seeded trajectory of the configured dynamics and record it.

    The trajectory is the batch-of-one run of `simulate` on stream key seed,
    so it equals member `seed` of any batched run of the same config."""
    x0, lam, gamma = config.kernel_inputs()
    n = config.n_steps
    samples = np.empty((1, n, x0.size)) if config.record_samples else None
    recorder = Recorder(recorded_steps(n, config.record_stride), samples)
    simulate(x0[None], config.alpha, n, [seed], config.noise, lam=lam, gamma=gamma,
             record=recorder)
    x = np.concatenate(recorder.states)
    return TrajectoryRecord(
        recorded_steps=recorder.checkpoints,
        states=x if lam is None else probabilities(lam, x),
        weights=None if lam is None else x,
        y_samples=None if samples is None else samples[0],
        seed=seed,
        config_digest=config.digest(),
    )
