"""Convergence guarantees for the stochastic dynamics and their empirical
verification.

Quantities implemented here, for an initial p with a strictly dominant first
coordinate (gap = p_1(0) - max_{i>=2} p_i(0) > 0) and triggers correlated
through a matrix gamma (`GapParams`; independent triggers are the gamma = I
case, given as gamma None, where every formula reduces to its
independent-trigger form), with Q = `dynamics.Q_BOUND` = 2, the bound of
|B + Z|:

* the largest admissible step size (an implicit inequality in alpha, solved
  by bisection on (0, 1/Q)),
* the exponential L1 error bound along the dynamics,
* the iteration count sufficient to reach a target error with the stated
  confidence,
* ensemble runs tracking the gap-maintenance event, the per-coordinate
  stopped noise martingales and the maximal-inequality events whose
  intersection forces the gap to persist (`run_gap_ensemble` returns its
  `dynamics.GapTracker`, which `verification_report` summarizes),
* a priming experiment: learn under one intensity vector, switch to another.

Ensemble verification is vectorized across trajectories; every trajectory
consumes its own seeded stream so results do not depend on batching.
"""

from dataclasses import dataclass

import numpy as np

from .simplex import (InvalidInputError, as_probability_vector, probabilities_from_weights,
                      validate_intensities)
from .dynamics import Q_BOUND, GapTracker, _gap_of, simulate, validate_correlation

BISECT_REL_TOL = 1e-12


@dataclass(frozen=True)
class GapParams:
    """Inputs of the convergence theorem: triggers correlated through gamma,
    or independent (gamma None, the gamma = I case), for d >= 2 coordinates.
    Q is `dynamics.Q_BOUND` = 2, the bound of |B + Z|, not an input.

    gap_gamma is the gap of gamma @ p(0), nu the largest off-diagonal entry
    of gamma and c_star = gap gap_gamma / 4 - nu (1 + gap gap_gamma / 4).
    With independent triggers gap_gamma = gap, nu = 0 and ||gamma||_inf = 1,
    so c_star = gap^2 / 4 and the theorem's formulas reduce to

        alpha <= (gap^2 / (16 Q^2)) min((1 - Q alpha)^3,
                 epsilon (4 gap / d + gap^2) / (256 (1 - p_1(0)))),
        E[||p(k) - e_1||_1 on the gap event] <=
                 2 (1 - p_1(0)) exp(-(alpha / 16)(4 gap / d + gap^2) k),
        k >= (16 d / (alpha gap (4 + d gap))) log(4 (1 - p_1(0)) / (epsilon delta)),

    with martingale threshold gap / 4."""

    p0: np.ndarray
    gamma: np.ndarray = None
    epsilon: float = 0.1

    def __post_init__(self):
        p0 = as_probability_vector(self.p0)
        if p0.size < 2:
            raise InvalidInputError("need at least two coordinates, got %d" % p0.size)
        object.__setattr__(self, "p0", p0)
        if self.gamma is not None:
            object.__setattr__(self, "gamma", validate_correlation(self.gamma, p0.size))
        if not 0 < self.epsilon < 1:
            raise InvalidInputError("epsilon must lie in (0, 1)")
        if self.gap <= 0:
            raise InvalidInputError("first coordinate must be strictly dominant")
        # else the martingale threshold is <= 0 and a run's gap event is dead
        if self.gap_gamma <= 0:
            raise InvalidInputError("first coordinate of gamma @ p0 must be strictly dominant")

    @property
    def _gamma(self):
        # the identity is exact here: gamma @ p0 = p0, no off-diagonal, norm 1
        return np.eye(self.d) if self.gamma is None else self.gamma

    @property
    def d(self):
        return self.p0.size

    @property
    def gap(self):
        return _gap_of(self.p0)

    @property
    def gap_gamma(self):
        return _gap_of(self._gamma @ self.p0)

    @property
    def nu(self):
        off = self._gamma[~np.eye(self.d, dtype=bool)]
        return float(off.max()) if off.size else 0.0

    @property
    def c_star(self):
        q = self.gap * self.gap_gamma / 4.0
        return q - self.nu * (1.0 + q)

    @property
    def gamma_inf_norm(self):
        return float(np.abs(self._gamma).sum(axis=1).max())

    @property
    def martingale_threshold(self):
        return 0.25 * min(self.gap, self.gap_gamma / self.gamma_inf_norm)


def _bisect_alpha(rhs):
    """Largest alpha in (0, 1/Q) with alpha <= rhs(alpha), rhs decreasing."""
    lo, hi = 0.0, 1.0 / Q_BOUND
    if hi <= rhs(hi):
        return hi
    while hi - lo > BISECT_REL_TOL * max(hi, 1e-300):
        mid = 0.5 * (lo + hi)
        if mid <= rhs(mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_alpha(params):
    """Largest step size satisfying

    alpha <= (1/(4 Q^2)) min((1 - Q alpha)^3 c_star,
             epsilon min(gap, gap_gamma/||gamma||_inf)^2 gap_gamma (4/d + gap)
             / (1024 (1 - p_1(0)))),

    which needs c_star > 0: correlation weak enough for the gaps (and so
    a strictly dominant first coordinate of gamma @ p(0))."""
    c_star = params.c_star
    if c_star <= 0:
        raise InvalidInputError(
            "correlation level too high for the stated gaps (c_star = %g <= 0)" % c_star
        )
    q, d = Q_BOUND, params.d
    p1 = params.p0[0]
    m = min(params.gap, params.gap_gamma / params.gamma_inf_norm)
    c2 = (
        params.epsilon
        * m
        * m
        * params.gap_gamma
        * (4.0 / d + params.gap)
        / (1024.0 * (1.0 - p1))
    )

    def rhs(a):
        return 1.0 / (4.0 * q * q) * min((1.0 - q * a) ** 3 * c_star, c2)

    return _bisect_alpha(rhs)


def error_bound(params, alpha, k):
    """E[||p(k) - e_1||_1 on the gap event] <=
    2 (1 - p_1(0)) exp(-(alpha gap_gamma / 16)(4/d + gap) k)."""
    k = np.asarray(k, dtype=float)
    rate = (alpha * params.gap_gamma / 16.0) * (4.0 / params.d + params.gap)
    return 2.0 * (1.0 - params.p0[0]) * np.exp(-rate * k)


def _theorem22_steps(d, alpha, gap, gap_gamma, tail, epsilon, delta):
    """Theorem 2.2's step count, rounded up:
    (16 d / (alpha gap_gamma (4 + d gap))) log(4 tail / (epsilon delta))."""
    denom = alpha * gap_gamma * (4.0 + d * gap)
    return int(np.ceil(16.0 * d / denom * np.log(4.0 * tail / (epsilon * delta))))


def iterations_for(params, alpha, delta):
    """Steps sufficient for E[||p(k) - e_1||_1 on the gap event] <= eps*delta/2,
    i.e. k >= (16 d / (alpha gap_gamma (4 + d gap))) log(4 (1 - p_1(0)) / (eps delta)).
    `GapParams` makes both gaps finite and positive."""
    if not 0 < delta < 1 or not alpha > 0:
        raise InvalidInputError("need delta in (0, 1) and alpha > 0, got delta=%r, alpha=%r"
                                % (delta, alpha))
    return _theorem22_steps(params.d, alpha, params.gap, params.gap_gamma,
                            1.0 - params.p0[0], params.epsilon, delta)


def run_gap_ensemble(
    p0,
    alpha,
    n_steps,
    n_traj,
    seed,
    gamma=None,
    checkpoints=(),
):
    """Run n_traj seeded trajectories in lockstep while tracking the gap event,
    the stopped noise martingales, and the maximal-inequality flags; returns
    the final states (n_traj, d) and the tracker.

    Trajectory i is the `dynamics.simulate` run on stream key
    (seed, i), so ensembles are order-independent and each
    member equals `dynamics.run_trajectory` with that key. The tracker is a
    `dynamics.GapTracker`, the recorder that `simulate`'s step advances and
    that checks the gamma @ p gap with the run's gamma when it is given; it
    records the states and martingales at each checkpoint, a step in
    [0, n_steps] (sorted, each once)."""
    params = GapParams(p0, gamma)
    keys = [(seed, i) for i in range(n_traj)]
    checkpoints = sorted(set(int(c) for c in checkpoints))
    tracker = GapTracker(len(keys), params.d, params.gap, params.martingale_threshold,
                         checkpoints, params.gap_gamma)
    p = simulate(np.tile(params.p0, (len(keys), 1)), alpha, n_steps, keys, gamma=params.gamma,
                 record=tracker)
    return p, tracker


def verification_report(params, alpha, tracker):
    """Summarize the `GapTracker` of an ensemble run against the theorem's
    guarantees.

    Returns a JSON-ready dict with the empirical gap-event probability, the
    bound at each checkpoint next to the on-event empirical L1 error, and the
    inclusion-violation count. The L1 error ||p - e_1||_1 is twice the tail
    mass sum_{j>=2} p_j, which stays positive where 1 - p_1 rounds to 0."""
    alive = tracker.alive
    n = alive.size
    rows = []
    for pos, k in enumerate(tracker.checkpoints):
        bound = float(error_bound(params, alpha, int(k)))
        err = 2.0 * tracker.states[pos][:, 1:].sum(axis=1)
        on_event = float((err * alive).sum() / n)
        rows.append(
            {"k": int(k), "bound": bound, "on_event_mean_l1_error": on_event}
        )
    return {
        "n_trajectories": int(n),
        "alpha": float(alpha),
        "epsilon": float(params.epsilon),
        "empirical_gap_event_probability": float(alive.mean()),
        "guaranteed_gap_event_probability": 1.0 - params.epsilon / 2.0,
        "checkpoints": rows,
        "inclusion_violations": int(tracker.ek_violations),
    }


def priming_delta_max(lam_first, lam_second):
    """Largest delta with max_{i>1} (lam2_i lam1_1 / (lam1_i lam2_1)) * delta/(1-delta) < 1,
    in closed form: 1 / (1 + max ratio). Both intensity vectors must pass
    `validate_intensities` and share one shape with d >= 2 coordinates."""
    a, b = validate_intensities(lam_first), validate_intensities(lam_second)
    if a.shape != b.shape or a.size < 2:
        raise InvalidInputError("intensities must share one shape with d >= 2, got shapes "
                                "%s and %s" % (a.shape, b.shape))
    r = float(np.max(b[1:] * a[0] / (a[1:] * b[0])))
    return 1.0 / (1.0 + r)


def priming_experiment(
    lam_first,
    lam_second,
    w0,
    alpha,
    k_switch,
    n_steps,
    n_traj,
    seed,
):
    """Learn under lam_first for k_switch steps, then under lam_second: one
    `dynamics.simulate` run from the probabilities of w0 under lam_first,
    switched to lam_second at k_switch (the ratio lam_second / lam_first), the
    switch a split of its chunk. With n_steps <= k_switch the run ends under
    lam_first.

    Preconditions: at w0 the first intensities make coordinate 0 strictly
    dominant, and the second match the first or make the last coordinate
    strictly dominant; the first that fails raises InvalidInputError.
    Returns final probabilities (n_traj, d) and the fraction of trajectories
    whose final argmax is each coordinate."""
    lam_a = np.asarray(lam_first, dtype=float)
    lam_b = np.asarray(lam_second, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    d = w0.size
    pa = probabilities_from_weights(lam_a, w0)
    pb = probabilities_from_weights(lam_b, w0)
    if _gap_of(pa) <= 0:
        raise InvalidInputError("first intensities do not strictly favor coordinate 0 at w0")
    if not np.allclose(pb, pa, rtol=1e-12, atol=0.0) and pb[d - 1] - pb[:d - 1].max() <= 0:
        raise InvalidInputError(
            "second intensities neither match the first nor strictly favor the last coordinate")
    keys = [(seed, i) for i in range(n_traj)]
    p_final = simulate(np.tile(pa, (len(keys), 1)), alpha, n_steps, keys,
                       switch=(k_switch, lam_b / lam_a))
    winners = np.argmax(p_final, axis=1)
    fractions = np.bincount(winners, minlength=d) / n_traj
    return p_final, fractions
