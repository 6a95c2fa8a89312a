"""Event-driven integrate-and-fire model with exponential kernels.

Presynaptic neurons spike as independent Poisson processes. The postsynaptic
membrane potential decays exponentially (unit time constant) between
presynaptic spikes and jumps by the synaptic weight at each one; reaching the
threshold emits a postsynaptic spike at that presynaptic spike time and resets
the potential to zero. Between consecutive postsynaptic spikes the weights
update multiplicatively from the pre/post timing kernel
exp(-(t_next - tau)) - exp(-(tau - t_prev)) summed over the window's spikes.

The membrane walks one time-ordered stream of presynaptic events and carries
its potential and last event time from one call to the next, so a stream
cut into blocks runs as one pass. It runs in the compiled `_kernel.c` when
the kernel loads and otherwise in Python (`_membrane_loop`); both give the
same record bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .dynamics import sample_triggers
from .simplex import (InvalidInputError, as_float_array, probabilities_from_weights,
                      validate_intensities, validate_weights)

# presynaptic events drawn at a time by collect_triggers: at 2^15
# spiking-validate peaks about 1.2 MiB lower than at 2^16, in the same time
EVENT_BLOCK = 1 << 15
# the most uniforms centered_noise_stats draws at a time
NOISE_BLOCK = 1 << 16
# standard errors the noise mean may lie from zero in `noise_mean_bound`: a
# centered kernel lands beyond them with probability about 6e-7
NOISE_Z = 5.0


@dataclass
class SpikeTrains:
    """Per-neuron spike times on [0, horizon]."""

    times: list  # list of 1-d arrays
    horizon: float


@dataclass
class MembraneConfig:
    weights: np.ndarray
    threshold: float


@dataclass
class PostsynapticRecord:
    spike_times: np.ndarray
    trigger_ids: np.ndarray


def merge_events(times):
    """All presynaptic events of the per-neuron spike times as (times,
    neuron_ids), ordered by time with neuron index breaking ties."""
    ids = np.concatenate([np.full(t.size, j, dtype=int) for j, t in enumerate(times)])
    times = np.concatenate(times)
    order = np.lexsort((ids, times))
    return times[order], ids[order]


def simulate_membrane(config, trains):
    """Run the membrane over fixed spike trains with fixed weights, one
    weight per train, from the potential 0 at time 0; each train must be
    finite and nondecreasing from 0. The trains are merged by `merge_events`.

    Postsynaptic spikes can only occur at presynaptic spike times; the
    potential never exceeds the threshold between events and resets to zero
    on each postsynaptic spike."""
    w = validate_weights(config.weights)
    _check_threshold(config.threshold)
    times = [as_float_array(t, "spike train") for t in trains.times]
    if len(times) != w.size or any(t.ndim != 1 for t in times):
        raise InvalidInputError("need one 1-d spike train per weight: %d weights, %d trains"
                                % (w.size, len(times)))
    for t in times:
        if t.size and not (t[0] >= 0 and np.isfinite(t[-1]) and np.all(t[1:] >= t[:-1])):
            raise InvalidInputError("spike trains must be finite and nondecreasing from 0")
    times, ids = merge_events(times)
    spikes, triggers = membrane(times, ids, w, config.threshold, np.zeros(2),
                                _spike_cap(times.size, w, config.threshold))
    return PostsynapticRecord(spike_times=spikes, trigger_ids=triggers)


def _check_threshold(threshold):
    if not 0 < threshold < math.inf:
        raise InvalidInputError("threshold must be positive and finite, got %r" % (threshold,))


def _spike_cap(n_events, w, threshold):
    """The most spikes n_events events can fire from a potential below the
    threshold. The first may come at once; after each reset y grows by at
    most max(w) per event, so a spike takes at least ceil(threshold /
    max(w)) events, one fewer leaving room for rounding in y. The ratio may
    overflow to inf; past n_events + 1 no second spike fits."""
    ratio = min(threshold / float(w.max()), n_events + 2.0)
    return 1 + n_events // max(math.ceil(ratio) - 1, 1)


def membrane(times, ids, w, threshold, state, cap):
    """Walk the event stream of the times (n,), in time order, and neuron
    ids (n,) with the weights w, from the potential and last event time in
    state (2,), which is updated in place; returns the (spike_times,
    trigger_ids) of its at most cap spikes. A neuron id outside [0, d)
    raises InvalidInputError before any event is walked. A time that is not
    finite or goes backwards raises InvalidInputError, more than cap spikes
    RuntimeError; state then holds the event before the one that failed, or
    the one that fired the spike over cap."""
    # both walks index w with the ids
    ids = np.asarray(ids)
    if ids.size and not (ids.min() >= 0 and ids.max() < len(w)):
        raise InvalidInputError("neuron ids must lie in [0, %d)" % len(w))
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
    try:
        for t, j in zip(np.asarray(times, dtype=float).tolist(), np.asarray(ids).tolist()):
            if not (math.isfinite(t) and t >= t_prev):
                raise InvalidInputError(_kernel.TIME_ORDER)
            y *= math.exp(t_prev - t)
            y += w[j]
            t_prev = t
            if y >= threshold:
                if len(spikes) == cap:
                    raise RuntimeError(_kernel.OVER_CAP % cap)
                spikes.append(t)
                triggers.append(j)
                y = 0.0
    finally:
        state[0], state[1] = y, t_prev
    return np.array(spikes, dtype=np.float64), np.array(triggers, dtype=np.int64)


def poisson_events(lam, start, size, rng):
    """The next size events after the time start of independent Poisson
    trains with the rates lam, as one stream (times, neuron ids). The gaps
    are exponential with the rate sum(lam) and each event's neuron is drawn
    by `sample_triggers` on lam / sum(lam): the law of the superposed
    trains, with no merge or sort. The times are a running sum from start,
    as t += gap would give them."""
    rate = float(lam.sum())
    times = rng.exponential(1.0 / rate, size)
    times[0] += start
    np.cumsum(times, out=times)
    return times, sample_triggers(lam / rate, rng.random(size))


def collect_triggers(lam, w, threshold, n_events, rng):
    """The trigger identities of the first n_events postsynaptic spikes of
    a membrane driven by Poisson input of rates lam through the weights w.

    The input is one stream drawn EVENT_BLOCK events at a time
    (`poisson_events`). The membrane carries its state from block to block
    and stops in the block that holds the n_events-th spike, so memory does
    not grow with n_events beyond the identities returned."""
    lam = validate_intensities(lam)
    w = validate_weights(w)
    if lam.size != w.size:
        raise InvalidInputError("need one weight per intensity: %d weights, %d intensities"
                                % (w.size, lam.size))
    if n_events < 1:
        raise InvalidInputError("n_events must be at least 1, got %r" % (n_events,))
    _check_threshold(threshold)
    cap = _spike_cap(EVENT_BLOCK, w, threshold)
    state = np.zeros(2)
    ids = []
    collected = 0
    while collected < n_events:
        times, neurons = poisson_events(lam, state[1], EVENT_BLOCK, rng)
        triggers = membrane(times, neurons, w, threshold, state, cap)[1][:n_events - collected]
        ids.append(triggers)
        collected += triggers.size
    return np.concatenate(ids)


def pair_kernel(tau, t_prev, t_next):
    """Timing kernel of one presynaptic spike tau in the window (t_prev, t_next]:
    exp(-(t_next - tau)) - exp(-(tau - t_prev)).

    Antisymmetric about the window midpoint and bounded in [-1, 1], so a
    uniformly placed spike contributes centered noise."""
    tau = np.asarray(tau, dtype=float)
    return np.exp(tau - t_next) - np.exp(t_prev - tau)


def stdp_update(w_j, window_spikes, t_prev, t_next, alpha):
    """Multiplicative weight update over one inter-postsynaptic window:
    w_j * (1 + alpha * sum of pair kernels). Spikes must lie in (t_prev, t_next]."""
    spikes = np.asarray(window_spikes, dtype=float)
    if spikes.size and (spikes.min() <= t_prev or spikes.max() > t_next):
        raise InvalidInputError("window spikes must lie in (t_prev, t_next]")
    total = float(pair_kernel(spikes, t_prev, t_next).sum()) if spikes.size else 0.0
    return w_j * (1.0 + alpha * total), total


def centered_noise_stats(t_prev, t_next, n_samples, rng):
    """Monte Carlo mean and bounds of the pair kernel under a uniformly placed
    spike in the window; the mean is zero by antisymmetry.

    The uniforms are drawn at most NOISE_BLOCK at a time, each taking one
    64-bit output as in a single draw, and summed in numpy's pairwise tree
    over all n_samples, so the statistics equal those of one draw of
    n_samples while memory does not grow with it."""
    if n_samples < 1:
        raise InvalidInputError("n_samples must be at least 1, got %r" % (n_samples,))
    lo, hi = np.inf, -np.inf

    def pairwise_sum(n):
        # numpy's pairwise_sum splits n > 128 values at n2 below, and sums a
        # leaf of NOISE_BLOCK or fewer by the same rule
        nonlocal lo, hi
        if n > NOISE_BLOCK:
            n2 = n // 2 - (n // 2) % 8
            return pairwise_sum(n2) + pairwise_sum(n - n2)
        vals = pair_kernel(rng.uniform(t_prev, t_next, n), t_prev, t_next)
        lo, hi = np.minimum(lo, vals.min()), np.maximum(hi, vals.max())
        return vals.sum()

    total = pairwise_sum(n_samples)
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
    weight increments (w_new/w_old - 1)."""

    probabilities: np.ndarray  # (n_spikes + 1, d)
    trigger_ids: np.ndarray
    window_durations: np.ndarray
    relative_increments: np.ndarray  # (n_spikes, d)
    weights_final: np.ndarray


def spiking_learning_run(lam, w0, threshold, alpha, n_spikes, rng):
    """Simulate the spiking model while the weights learn.

    Presynaptic neurons spike as Poisson processes generated on the fly; at
    each postsynaptic spike every weight is updated from the spikes its
    neuron fired inside the closed window, and probabilities are re-read."""
    lam = validate_intensities(lam)
    w = validate_weights(w0).astype(float).copy()
    d = lam.size
    if alpha <= 0 or alpha >= 0.5:
        raise InvalidInputError("alpha must lie in (0, 1/2) for the bounded kernel")
    probs = [probabilities_from_weights(lam, w)]
    triggers = np.empty(n_spikes, dtype=int)
    durations = np.empty(n_spikes)
    increments = np.empty((n_spikes, d))
    next_spike = rng.exponential(1.0 / lam)
    window = [[] for _ in range(d)]
    y = 0.0
    t_prev_event = 0.0
    t_window_start = 0.0
    spike_count = 0
    while spike_count < n_spikes:
        j = int(np.argmin(next_spike))
        t = next_spike[j]
        next_spike[j] = t + rng.exponential(1.0 / lam[j])
        y *= math.exp(t_prev_event - t)
        y += w[j]
        t_prev_event = t
        window[j].append(t)
        if y >= threshold:
            for i in range(d):
                w_new, _ = stdp_update(w[i], window[i], t_window_start, t, alpha)
                increments[spike_count, i] = w_new / w[i] - 1.0
                w[i] = w_new
                window[i] = []
            triggers[spike_count] = j
            durations[spike_count] = t - t_window_start
            t_window_start = t
            y = 0.0
            probs.append(probabilities_from_weights(lam, w))
            spike_count += 1
    return LearningRunRecord(
        probabilities=np.array(probs),
        trigger_ids=triggers,
        window_durations=durations,
        relative_increments=increments,
        weights_final=w,
    )
