"""Event-driven integrate-and-fire model with exponential kernels.

Presynaptic neurons spike as independent Poisson processes. The postsynaptic
membrane potential decays exponentially (unit time constant) between
presynaptic spikes and jumps by the synaptic weight at each one; reaching the
threshold emits a postsynaptic spike at that presynaptic spike time and resets
the potential to zero. Between consecutive postsynaptic spikes the weights
update multiplicatively from the pre/post timing kernel
exp(-(t_next - tau)) - exp(-(tau - t_prev)) summed over the window's spikes.

The membrane takes the presynaptic events in time order, the lower neuron
index first on equal times (the order of np.lexsort((ids, times))). It runs
in the compiled `_kernel.c` when the kernel loads, which merges the sorted
trains as it walks them, and otherwise in Python over `merge_events`; both
give the same record bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .simplex import (InvalidInputError, as_float_array, validate_intensities,
                      validate_weights)

# uniforms drawn at a time by centered_noise_stats
NOISE_BLOCK = 1 << 16


@dataclass
class SpikeTrains:
    """Per-neuron spike times on [0, horizon]."""

    times: list  # list of 1-d arrays
    horizon: float


def gen_poisson_trains(lam, horizon, rng):
    """Independent Poisson spike trains with the given rates."""
    lam = validate_intensities(lam)
    if horizon <= 0:
        raise InvalidInputError("horizon must be positive")
    trains = []
    for rate in lam:
        blocks = []
        t = 0.0
        # draw gaps in blocks to keep the stream consumption predictable;
        # cumsum adds them one after another, as a running t += gap would
        while True:
            gaps = rng.exponential(1.0 / rate, size=max(16, int(rate * horizon * 0.1) + 16))
            ts = np.cumsum(np.concatenate(([t], gaps)))[1:]
            kept = np.searchsorted(ts, horizon, side="right")
            blocks.append(ts[:kept])
            if kept < ts.size:
                break
            t = ts[-1]
        trains.append(np.concatenate(blocks))
    return SpikeTrains(times=trains, horizon=horizon)


@dataclass
class MembraneConfig:
    weights: np.ndarray
    threshold: float
    record_potential: bool = False


@dataclass
class PostsynapticRecord:
    spike_times: np.ndarray
    trigger_ids: np.ndarray
    potential_times: np.ndarray = None
    potentials: np.ndarray = None  # value just after each presynaptic jump


def merge_events(times):
    """All presynaptic events of the per-neuron spike times as (times,
    neuron_ids), ordered by time with neuron index breaking ties."""
    ids = np.concatenate([np.full(t.size, j, dtype=int) for j, t in enumerate(times)])
    times = np.concatenate(times)
    order = np.lexsort((ids, times))
    return times[order], ids[order]


def simulate_membrane(config, trains):
    """Run the membrane over fixed spike trains with fixed weights, one
    weight per train; each train must be finite and nondecreasing from 0.

    Postsynaptic spikes can only occur at presynaptic spike times; the
    potential never exceeds the threshold between events and resets to zero
    on each postsynaptic spike."""
    w = validate_weights(config.weights)
    _check_threshold(config.threshold)
    times = [as_float_array(t, "spike train") for t in trains.times]
    if len(times) != w.size or any(t.ndim != 1 for t in times):
        raise InvalidInputError("need one 1-d spike train per weight: %d weights, %d trains"
                                % (w.size, len(times)))
    if _kernel.library() is None:
        return _membrane_loop(config, w, times)
    n_events = sum(t.size for t in times)
    # y grows by at most max(w) per event, so a spike takes at least
    # ceil(threshold / max(w)) events; one fewer leaves room for rounding in
    # y. The ratio may overflow to inf; past n_events + 1 no spike fits.
    ratio = min(config.threshold / float(w.max()), n_events + 2.0)
    cap = n_events // max(math.ceil(ratio) - 1, 1)
    spikes, triggers, event_times, potentials = _kernel.membrane(
        times, w, config.threshold, cap, config.record_potential)
    return PostsynapticRecord(spike_times=spikes, trigger_ids=triggers,
                              potential_times=event_times, potentials=potentials)


def _check_threshold(threshold):
    if not 0 < threshold < math.inf:
        raise InvalidInputError("threshold must be positive and finite, got %r" % (threshold,))


def _membrane_loop(config, w, times):
    """simulate_membrane in Python, over the merged events: the reference of
    the compiled membrane, taken when the kernel does not load; w are the
    checked weights."""
    for t in times:
        if t.size and not (t[0] >= 0 and np.isfinite(t[-1]) and np.all(t[1:] >= t[:-1])):
            raise InvalidInputError("spike trains must be finite and nondecreasing from 0")
    times, ids = merge_events(times)
    spikes = []
    triggers = []
    pot_vals = [] if config.record_potential else None
    y = 0.0
    t_prev = 0.0
    for t, j in zip(times, ids):
        y *= math.exp(t_prev - t)
        y += w[j]
        t_prev = t
        if y >= config.threshold:
            spikes.append(t)
            triggers.append(j)
            y = 0.0
        if pot_vals is not None:
            pot_vals.append(y)
    return PostsynapticRecord(
        spike_times=np.array(spikes),
        trigger_ids=np.array(triggers, dtype=int),
        potential_times=times if config.record_potential else None,
        potentials=None if pot_vals is None else np.array(pot_vals),
    )


def collect_triggers(lam, w, threshold, n_events, rng):
    """Accumulate at least n_events postsynaptic trigger identities, generating
    Poisson input in batches (the membrane restarts at zero between batches,
    which does not affect the trigger-identity distribution)."""
    lam = validate_intensities(lam)
    w = validate_weights(w)
    if n_events < 1:
        raise InvalidInputError("n_events must be at least 1, got %r" % (n_events,))
    # before the horizon, which a NaN or infinite threshold would make one too
    _check_threshold(threshold)
    config = MembraneConfig(weights=w, threshold=threshold)
    ids = []
    collected = 0
    # first guess assumes every input spike contributes fully to the potential
    horizon = 1.3 * n_events * threshold / float(np.dot(lam, w)) + 100.0
    while collected < n_events:
        trains = gen_poisson_trains(lam, horizon, rng)
        rec = simulate_membrane(config, trains)
        ids.append(rec.trigger_ids)
        got = rec.trigger_ids.size
        collected += got
        if collected < n_events:
            rate = max(got / horizon, 1e-6)
            horizon = 1.3 * (n_events - collected) / rate + 100.0
    return np.concatenate(ids)[:n_events]


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

    The uniforms are drawn NOISE_BLOCK at a time, each taking one 64-bit
    output as in a single draw, so only the kernel values grow with
    n_samples and the statistics equal those of one draw of n_samples."""
    if n_samples < 1:
        raise InvalidInputError("n_samples must be at least 1, got %r" % (n_samples,))
    vals = np.empty(n_samples)
    for start in range(0, n_samples, NOISE_BLOCK):
        block = vals[start:start + NOISE_BLOCK]
        block[:] = pair_kernel(rng.uniform(t_prev, t_next, block.size), t_prev, t_next)
    return float(vals.mean()), float(vals.min()), float(vals.max())


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
    probs = [lam * w / float(np.dot(lam, w))]
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
            probs.append(lam * w / float(np.dot(lam, w)))
            spike_count += 1
    return LearningRunRecord(
        probabilities=np.array(probs),
        trigger_ids=triggers,
        window_durations=durations,
        relative_increments=increments,
        weights_final=w,
    )
