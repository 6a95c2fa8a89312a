"""Event-driven integrate-and-fire model with exponential kernels.

Presynaptic neurons spike as independent Poisson processes. The postsynaptic
membrane potential decays exponentially (unit time constant) between
presynaptic spikes and jumps by the synaptic weight at each one; reaching the
threshold emits a postsynaptic spike at that presynaptic spike time and resets
the potential to zero. Between consecutive postsynaptic spikes the weights
update multiplicatively from the pre/post timing kernel
exp(-(t_next - tau)) - exp(-(tau - t_prev)) summed over the window's spikes.

The membrane (`membrane`) walks one time-ordered stream of presynaptic
events (`poisson_events`) until a given number of spikes, and carries its
potential and last event time from one call to the next, so a stream cut
into pieces, or resumed where a walk stopped, runs as one pass. Both
`collect_triggers` and the closed loop `spiking_learning_run` walk it
through `_walk`, which stops a threshold the potential never reaches after
MAX_EVENTS_PER_SPIKE events. It runs in the compiled `_kernel.c` when the
kernel loads and otherwise in Python (`_membrane_loop`); both give the same
record bit for bit. The stream is drawn EVENT_PIECE events at a time, each
piece's gaps and then its uniforms, so a walk leaves rng after the last
piece it reached.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .dynamics import sample_triggers
from .simplex import InvalidInputError, validate_intensities, validate_weights

# events of the presynaptic stream drawn at a time; rng's stream holds each
# piece's gaps and then its uniforms, so this fixes the draws. It is also the
# most events collect_triggers hands one membrane call
EVENT_PIECE = 1 << 12
# events the membrane may walk with no spike before its threshold counts as
# unreachable (about 0.7 s compiled); the defaults average about 360 events
# per spike at threshold 30
MAX_EVENTS_PER_SPIKE = 1 << 24
# the most events spiking_learning_run hands one membrane call: both walks
# check, and the Python walk converts, every event they are handed, while a
# call stops at the next spike, a few events on
LEARN_WALK = 64
# the most uniforms centered_noise_stats draws at a time
NOISE_BLOCK = 1 << 13
# standard errors the noise mean may lie from zero in `noise_mean_bound`: a
# centered kernel lands beyond them with probability about 6e-7
NOISE_Z = 5.0


def _inputs(lam, w, threshold):
    """The intensities lam and weights w, checked, with one weight per
    intensity and a positive, finite threshold."""
    lam = validate_intensities(lam)
    w = validate_weights(w)
    if lam.size != w.size:
        raise InvalidInputError("need one weight per intensity: %d weights, %d intensities"
                                % (w.size, lam.size))
    if not 0 < threshold < math.inf:
        raise InvalidInputError("threshold must be positive and finite, got %r" % (threshold,))
    return lam, w


def membrane(times, ids, w, threshold, state, cap):
    """Walk the event stream of the times (n,), in time order, and neuron
    ids (n,) with the weights w, from the potential and last event time in
    state (2,), which is updated in place, and stop after the cap-th spike
    or at the end of the stream; returns (spike_times, trigger_ids, walked),
    walked the number of events walked, so that the stream resumes at
    times[walked:]. A neuron id outside [0, d) or a cap below 1 raises
    InvalidInputError before any event is walked. A time that is not finite
    or goes backwards raises InvalidInputError; state then holds the event
    before it."""
    # both walks index w with the ids and the compiled one writes cap spikes
    ids = np.asarray(ids)
    if ids.size and not (ids.min() >= 0 and ids.max() < len(w)):
        raise InvalidInputError("neuron ids must lie in [0, %d)" % len(w))
    if cap < 1:
        raise InvalidInputError("cap must be at least 1, got %r" % (cap,))
    if _kernel.library() is None:
        return _membrane_loop(times, ids, w, threshold, state, cap)
    return _kernel.membrane(times, ids, w, threshold, state, cap)


def _membrane_loop(times, ids, w, threshold, state, cap):
    """`membrane` in Python: the reference of the compiled membrane, taken
    when the kernel does not load, with its results, state and errors."""
    w = np.asarray(w, dtype=float).tolist()
    y, t_prev = float(state[0]), float(state[1])
    spikes = []
    triggers = []
    walked = 0
    try:
        for t, j in zip(np.asarray(times, dtype=float).tolist(), np.asarray(ids).tolist()):
            if not (math.isfinite(t) and t >= t_prev):
                raise InvalidInputError(_kernel.TIME_ORDER)
            y *= math.exp(t_prev - t)
            y += w[j]
            t_prev = t
            walked += 1
            if y >= threshold:
                spikes.append(t)
                triggers.append(j)
                y = 0.0
                if len(spikes) == cap:
                    break
    finally:
        state[0], state[1] = y, t_prev
    return np.array(spikes, dtype=np.float64), np.array(triggers, dtype=np.int64), walked


def poisson_events(lam, rng):
    """Independent Poisson trains with the rates lam from time 0, as one
    stream of events yielded EVENT_PIECE at a time as (times, neuron ids).
    Each piece draws its gaps, exponential with the rate sum(lam), and then
    one uniform per event, from which `sample_triggers` draws the event's
    neuron on lam / sum(lam): the law of the superposed trains, with no
    merge or sort. The times are a running sum, as t += gap would give
    them."""
    rate = float(lam.sum())
    p = lam / rate
    start = 0.0
    while True:
        times = rng.exponential(1.0 / rate, EVENT_PIECE)
        times[0] += start
        np.cumsum(times, out=times)
        start = times[-1]
        yield times, sample_triggers(p, rng.random(EVENT_PIECE))


def _walk(lam, w, threshold, rng, step, cap):
    """Walk the membrane over `poisson_events`' stream, handing each call at
    most step events and the cap, and yield each call's (spike times,
    trigger ids, times, ids), the last two the events it walked. The
    membrane reads w at every call, so the caller may change it in place
    between calls. More than MAX_EVENTS_PER_SPIKE events walked in calls
    without a spike raise InvalidInputError: the potential does not reach
    the threshold."""
    state = np.zeros(2)
    quiet = 0
    for times, ids in poisson_events(lam, rng):
        pos = 0
        while pos < times.size:
            spikes, triggers, walked = membrane(times[pos:pos + step], ids[pos:pos + step], w,
                                                threshold, state, cap)
            quiet = 0 if spikes.size else quiet + walked
            if quiet > MAX_EVENTS_PER_SPIKE:
                raise InvalidInputError("no spike in %d events: threshold %r is not reached"
                                        % (quiet, threshold))
            yield spikes, triggers, times[pos:pos + walked], ids[pos:pos + walked]
            pos += walked


def collect_triggers(lam, w, threshold, n_events, rng):
    """The trigger identities of the first n_events postsynaptic spikes of
    a membrane driven by Poisson input of rates lam through the weights w.

    The membrane walks the input stream (`_walk`) a piece at a time and
    stops in the piece of the n_events-th spike, so memory does not grow
    with n_events beyond the identities returned."""
    lam, w = _inputs(lam, w, threshold)
    if n_events < 1:
        raise InvalidInputError("n_events must be at least 1, got %r" % (n_events,))
    ids = []
    collected = 0
    # at most one spike per event: a piece's spikes never pass the cap
    for _, triggers, _, _ in _walk(lam, w, threshold, rng, EVENT_PIECE, EVENT_PIECE):
        ids.append(triggers)
        collected += triggers.size
        if collected >= n_events:
            break
    return np.concatenate(ids)[:n_events]


def pair_kernel(tau, t_prev, t_next):
    """Timing kernel of one presynaptic spike tau in the window (t_prev, t_next]:
    exp(-(t_next - tau)) - exp(-(tau - t_prev)).

    Antisymmetric about the window midpoint and bounded in [-1, 1], so a
    uniformly placed spike contributes centered noise."""
    tau = np.asarray(tau, dtype=float)
    return np.exp(tau - t_next) - np.exp(t_prev - tau)


def centered_noise_stats(t_prev, t_next, n_samples, rng):
    """Monte Carlo mean and bounds of the pair kernel under a uniformly placed
    spike in the window; the mean is zero by antisymmetry.

    The uniforms are drawn at most NOISE_BLOCK at a time, each taking one
    64-bit output as in a single draw, so memory does not grow with
    n_samples; the mean is the sum of the blocks' sums over n_samples."""
    if n_samples < 1:
        raise InvalidInputError("n_samples must be at least 1, got %r" % (n_samples,))
    total, lo, hi = 0.0, np.inf, -np.inf
    for a in range(0, n_samples, NOISE_BLOCK):
        tau = rng.uniform(t_prev, t_next, min(NOISE_BLOCK, n_samples - a))
        vals = pair_kernel(tau, t_prev, t_next)
        total += vals.sum()
        lo, hi = np.minimum(lo, vals.min()), np.maximum(hi, vals.max())
    return float(total / n_samples), float(lo), float(hi)


def noise_mean_bound(t_prev, t_next, n_samples):
    """NOISE_Z standard errors of the mean of `centered_noise_stats`. With
    tau uniform on a window of length L the kernel has mean zero and
    variance E[e^(2(tau - t_next))] + E[e^(2(t_prev - tau))] - 2e^(-L)
    = (1 - e^(-2L)) / L - 2e^(-L)."""
    length = t_next - t_prev
    var = -math.expm1(-2.0 * length) / length - 2.0 * math.exp(-length)
    return NOISE_Z * math.sqrt(var / n_samples)


@dataclass
class LearningRunRecord:
    """Closed-loop run: probabilities lam*w / lam.w after each postsynaptic
    spike, winner identities, window durations, and per-window relative
    weight increments, alpha times each neuron's kernel sum over the
    window."""

    probabilities: np.ndarray  # (n_spikes + 1, d)
    trigger_ids: np.ndarray
    window_durations: np.ndarray
    relative_increments: np.ndarray  # (n_spikes, d)
    weights_final: np.ndarray


def _spikes(lam, w, threshold, rng):
    """The postsynaptic spikes of the membrane on `collect_triggers`'
    stream, each as (time, trigger id, window), the window the (times, ids)
    of the events walked since the previous spike, the spike's own event
    included; it may span pieces. The membrane reads w at every call, so
    the caller may change it in place between spikes."""
    window = []
    for spike, trigger, times, ids in _walk(lam, w, threshold, rng, LEARN_WALK, 1):
        window.append((times, ids))
        if trigger.size:
            yield spike[0], trigger[0], [np.concatenate(a) for a in zip(*window)]
            window = []


def spiking_learning_run(lam, w0, threshold, alpha, n_spikes, rng):
    """Simulate the spiking model while the weights learn.

    The membrane walks `collect_triggers`' Poisson stream and stops at each
    postsynaptic spike (`_spikes`). There every weight w_j is multiplied by
    1 + alpha times the sum of `pair_kernel` over neuron j's events in the
    closed window since the previous spike. A weight driven below zero
    raises InvalidInputError at that spike."""
    lam, w = _inputs(lam, w0, threshold)
    if not 0 < alpha < 0.5:
        raise InvalidInputError("alpha must lie in (0, 1/2) for the bounded kernel")
    if n_spikes < 0:
        raise InvalidInputError("n_spikes must be nonnegative, got %r" % (n_spikes,))
    d = lam.size
    weights = np.empty((n_spikes + 1, d))
    weights[0] = w
    times = np.empty(n_spikes)
    triggers = np.empty(n_spikes, dtype=np.int64)
    increments = np.empty((n_spikes, d))
    w = w.copy()
    t_prev = 0.0
    spikes = _spikes(lam, w, threshold, rng)
    for k in range(n_spikes):
        times[k], triggers[k], (tau, ids) = next(spikes)
        increments[k] = alpha * np.bincount(ids, weights=pair_kernel(tau, t_prev, times[k]),
                                            minlength=d)
        w *= 1.0 + increments[k]
        weights[k + 1] = validate_weights(w)
        t_prev = times[k]
    probs = lam * weights
    probs /= probs.sum(axis=1, keepdims=True)
    return LearningRunRecord(
        probabilities=probs,
        trigger_ids=triggers,
        window_durations=np.diff(times, prepend=0.0),
        relative_increments=increments,
        weights_final=w,
    )
