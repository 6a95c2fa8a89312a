"""Event-driven integrate-and-fire model with exponential kernels.

Presynaptic neurons spike as independent Poisson processes. The postsynaptic
membrane potential decays exponentially (unit time constant) between
presynaptic spikes and jumps by the synaptic weight at each one; reaching the
threshold emits a postsynaptic spike at that presynaptic spike time and resets
the potential to zero. Between consecutive postsynaptic spikes the weights
update multiplicatively from the pre/post timing kernel
exp(-(t_next - tau)) - exp(-(tau - t_prev)) summed over the window's spikes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .simplex import InvalidInputError, validate_intensities, validate_weights


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
        ts = []
        t = 0.0
        # draw gaps in blocks to keep the stream consumption predictable
        while True:
            gaps = rng.exponential(1.0 / rate, size=max(16, int(rate * horizon * 0.1) + 16))
            for g in gaps:
                t += g
                if t > horizon:
                    break
                ts.append(t)
            if t > horizon:
                break
        trains.append(np.array(ts))
    return SpikeTrains(times=trains, horizon=horizon)


@dataclass
class MembraneConfig:
    weights: np.ndarray
    threshold: float
    record_potential: bool = False

    def validated(self):
        w = validate_weights(self.weights)
        if self.threshold <= 0:
            raise InvalidInputError("threshold must be positive")
        return self


@dataclass
class PostsynapticRecord:
    spike_times: np.ndarray
    trigger_ids: np.ndarray
    potential_times: np.ndarray = None
    potentials: np.ndarray = None  # value just after each presynaptic jump


def merge_events(trains):
    """All presynaptic events as (times, neuron_ids), ordered by time with
    neuron index breaking ties."""
    times = np.concatenate([t for t in trains.times])
    ids = np.concatenate(
        [np.full(t.size, j, dtype=int) for j, t in enumerate(trains.times)]
    )
    order = np.lexsort((ids, times))
    return times[order], ids[order]


def simulate_membrane(config, trains):
    """Run the membrane over fixed spike trains with fixed weights.

    Postsynaptic spikes can only occur at presynaptic spike times; the
    potential never exceeds the threshold between events and resets to zero
    on each postsynaptic spike."""
    config.validated()
    w = np.asarray(config.weights, dtype=float)
    times, ids = merge_events(trains)
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
    spike in the window; the mean is zero by antisymmetry."""
    tau = rng.uniform(t_prev, t_next, n_samples)
    vals = pair_kernel(tau, t_prev, t_next)
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
