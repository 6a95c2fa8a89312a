"""Convergence guarantees for the stochastic dynamics and their empirical
verification.

Quantities implemented here, for an initial p with a strictly dominant first
coordinate (gap = p_1(0) - max_{i>=2} p_i(0) > 0) and noise bound Q:

* the largest admissible step size (an implicit inequality in alpha, solved
  by bisection on (0, 1/Q)),
* the exponential L1 error bound along the dynamics,
* the iteration count sufficient to reach a target error with the stated
  confidence,
* the gap-maintenance event, the per-coordinate noise martingales, and the
  maximal-inequality events whose intersection forces the gap to persist,
* the correlated-trigger counterparts (which reduce exactly to the
  independent ones when the correlation matrix is the identity),
* a priming experiment: learn under one intensity vector, switch to another.

Ensemble verification is vectorized across trajectories; every trajectory
consumes its own seeded stream so results do not depend on batching.
"""

from dataclasses import dataclass

import numpy as np

from .simplex import InvalidInputError, as_probability_vector, probabilities_from_weights
from .dynamics import GapTracker, NoiseModel, probabilities, simulate, validate_correlation

BISECT_REL_TOL = 1e-12


def _gap(p0):
    p0 = np.asarray(p0, dtype=float)
    return p0[0] - p0[1:].max()


@dataclass(frozen=True)
class GapParams:
    """Inputs of the single-neuron convergence theorem."""

    p0: np.ndarray
    q_bound: float = 2.0
    epsilon: float = 0.1

    def __post_init__(self):
        p0 = as_probability_vector(self.p0)
        object.__setattr__(self, "p0", p0)
        if _gap(p0) <= 0:
            raise InvalidInputError("first coordinate must be strictly dominant")
        if not 0 < self.epsilon < 1:
            raise InvalidInputError("epsilon must lie in (0, 1)")
        if self.q_bound <= 1:
            raise InvalidInputError("q_bound must exceed 1")

    @property
    def gap(self):
        return _gap(self.p0)

    @property
    def d(self):
        return self.p0.size


def _bisect_alpha(rhs, q_bound):
    """Largest alpha in (0, 1/Q) with alpha <= rhs(alpha), rhs decreasing."""
    lo, hi = 0.0, 1.0 / q_bound
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

    alpha <= (gap^2 / (16 Q^2)) * min((1 - Q alpha)^3,
             epsilon (4 gap / d + gap^2) / (256 (1 - p_1(0))))."""
    g, q, d = params.gap, params.q_bound, params.d
    p1 = params.p0[0]
    c2 = params.epsilon * (4.0 * g / d + g * g) / (256.0 * (1.0 - p1))

    def rhs(a):
        return g * g / (16.0 * q * q) * min((1.0 - q * a) ** 3, c2)

    return _bisect_alpha(rhs, q)


def max_alpha_gap_only(gap, q_bound=2.0):
    """Largest alpha with alpha <= gap^2 (1 - Q alpha)^3 / (16 Q^2); under this
    constraint the maximal-inequality events force the gap to persist."""

    def rhs(a):
        return gap * gap * (1.0 - q_bound * a) ** 3 / (16.0 * q_bound * q_bound)

    return _bisect_alpha(rhs, q_bound)


def error_bound(params, alpha, k):
    """E[||p(k) - e_1||_1 on the gap event] <=
    2 (1 - p_1(0)) exp(-(alpha/16)(4 gap/d + gap^2) k)."""
    g, d = params.gap, params.d
    k = np.asarray(k, dtype=float)
    return 2.0 * (1.0 - params.p0[0]) * np.exp(-(alpha / 16.0) * (4.0 * g / d + g * g) * k)


def iterations_for(params, alpha, delta):
    """Steps sufficient for E[||p(k) - e_1||_1 on the gap event] <= eps*delta/2,
    i.e. k >= (16 d / (alpha gap (4 + d gap))) log(4 (1 - p_1(0)) / (eps delta))."""
    g, d = params.gap, params.d
    if not 0 < delta < 1:
        raise InvalidInputError("delta must lie in (0, 1)")
    arg = 4.0 * (1.0 - params.p0[0]) / (params.epsilon * delta)
    return int(np.ceil(16.0 * d / (alpha * g * (4.0 + d * g)) * np.log(arg)))


@dataclass(frozen=True)
class CorrelatedParams:
    """Inputs of the correlated-trigger convergence theorem."""

    p0: np.ndarray
    gamma: np.ndarray
    q_bound: float = 2.0
    epsilon: float = 0.1

    def __post_init__(self):
        p0 = as_probability_vector(self.p0)
        gamma = validate_correlation(self.gamma)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "gamma", gamma)
        if not 0 < self.epsilon < 1:
            raise InvalidInputError("epsilon must lie in (0, 1)")
        if _gap(p0) <= 0:
            raise InvalidInputError("first coordinate must be strictly dominant")
        if self.gap_gamma <= 0:
            raise InvalidInputError("first coordinate of gamma p(0) must be strictly dominant")
        if self.c_star <= 0:
            raise InvalidInputError(
                "correlation level too high for the stated gaps (c_star = %g <= 0)" % self.c_star
            )

    @property
    def d(self):
        return self.p0.size

    @property
    def gap_p(self):
        return _gap(self.p0)

    @property
    def gap_gamma(self):
        return _gap(self.gamma @ self.p0)

    @property
    def nu(self):
        off = self.gamma[~np.eye(self.d, dtype=bool)]
        return float(off.max()) if off.size else 0.0

    @property
    def c_star(self):
        q = self.gap_p * self.gap_gamma / 4.0
        return q - self.nu * (1.0 + q)

    @property
    def gamma_inf_norm(self):
        return float(np.abs(self.gamma).sum(axis=1).max())

    @property
    def martingale_threshold(self):
        return 0.25 * min(self.gap_p, self.gap_gamma / self.gamma_inf_norm)


def max_alpha_correlated(params):
    """Largest step size satisfying

    alpha <= (1/(4 Q^2)) min((1 - Q alpha)^3 c_star,
             epsilon min(gap_p, gap_gamma/||gamma||_inf)^2 gap_gamma (4/d + gap_p)
             / (1024 (1 - p_1(0)))).

    With gamma = I this coincides with `max_alpha` exactly."""
    q, d = params.q_bound, params.d
    p1 = params.p0[0]
    m = min(params.gap_p, params.gap_gamma / params.gamma_inf_norm)
    c2 = (
        params.epsilon
        * m
        * m
        * params.gap_gamma
        * (4.0 / d + params.gap_p)
        / (1024.0 * (1.0 - p1))
    )

    def rhs(a):
        return 1.0 / (4.0 * q * q) * min((1.0 - q * a) ** 3 * params.c_star, c2)

    return _bisect_alpha(rhs, q)


def error_bound_correlated(params, alpha, k):
    """2 (1 - p_1(0)) exp(-(alpha gap_gamma / 16)(4/d + gap_p) k)."""
    k = np.asarray(k, dtype=float)
    rate = (alpha * params.gap_gamma / 16.0) * (4.0 / params.d + params.gap_p)
    return 2.0 * (1.0 - params.p0[0]) * np.exp(-rate * k)


def iterations_for_correlated(params, alpha, delta):
    """k >= (16 d / (alpha gap_gamma (4 + d gap_p))) log(4 (1 - p_1(0)) / (eps delta))."""
    if not 0 < delta < 1:
        raise InvalidInputError("delta must lie in (0, 1)")
    arg = 4.0 * (1.0 - params.p0[0]) / (params.epsilon * delta)
    denom = alpha * params.gap_gamma * (4.0 + params.d * params.gap_p)
    return int(np.ceil(16.0 * params.d / denom * np.log(arg)))


@dataclass
class EventRecord:
    """Per-step event tracking along one trajectory.

    omega[k] is True when the half-gap condition held at every step u <= k
    (omega[0] is True by convention). martingales[k, j] accumulates the
    stopped noise martingale M_j(k); e_flags[k] is True when the running
    maximum of |M_j| stayed below the threshold for every coordinate.
    """

    omega: np.ndarray
    martingales: np.ndarray
    e_flags: np.ndarray
    threshold: float


def track_events(states, y_samples, alpha, gap, gamma=None, gap_gamma=None, threshold=None):
    """Compute gap events, noise martingales, and maximal-inequality flags from
    a fully recorded trajectory (states at every step, Y samples).

    For correlated triggers supply gamma and the initial gap of gamma @ p(0);
    the gap condition then also applies to gamma @ p and the default
    martingale threshold becomes min(gap, gap_gamma/||gamma||_inf)/4."""
    states = np.asarray(states, dtype=float)
    y = np.asarray(y_samples, dtype=float)
    n = y.shape[0]
    d = states.shape[1]
    if states.shape[0] != n + 1:
        raise InvalidInputError("need states at every step: %d states for %d samples" % (states.shape[0], n))
    if threshold is None:
        if gamma is None:
            threshold = gap / 4.0
        else:
            ginf = float(np.abs(np.asarray(gamma)).sum(axis=1).max())
            threshold = 0.25 * min(gap, gap_gamma / ginf)
    omega = np.empty(n + 1, dtype=bool)
    omega[0] = True
    mart = np.zeros((n + 1, d))
    e_flags = np.empty(n + 1, dtype=bool)
    max_abs = np.zeros(d)
    e_flags[0] = True
    alive = True
    for k in range(n):
        p = states[k]
        m = p if gamma is None else np.asarray(gamma, dtype=float) @ p
        s = float(np.dot(p, y[k]))
        xi = p * (m - np.dot(p, m)) - p * (y[k] - s)
        mart[k + 1] = mart[k] + (alpha * xi if alive else 0.0)
        np.maximum(max_abs, np.abs(mart[k + 1]), out=max_abs)
        e_flags[k + 1] = bool(max_abs.max() <= threshold)
        p_next = states[k + 1]
        ok = _gap(p_next) >= gap / 2.0
        if gamma is not None:
            ok = ok and _gap(np.asarray(gamma, dtype=float) @ p_next) >= gap_gamma / 2.0
        alive = alive and ok
        omega[k + 1] = alive
    return EventRecord(omega=omega, martingales=mart, e_flags=e_flags, threshold=threshold)


@dataclass
class EnsembleVerification:
    """Vectorized ensemble run with event tracking.

    theta_hat[i] says the half-gap condition held through the whole horizon
    for trajectory i. p1_checkpoints has shape (n_traj, n_checkpoints), with
    martingale values alongside. ek_violations counts steps where the
    maximal-inequality event held but the gap condition failed at the next
    step (the inclusion lemma says this must be zero for admissible alpha).
    """

    checkpoints: np.ndarray
    p1_checkpoints: np.ndarray
    martingale_checkpoints: np.ndarray
    theta_hat: np.ndarray
    ek_violations: int
    final_states: np.ndarray


def run_gap_ensemble(
    p0,
    alpha,
    n_steps,
    n_traj,
    seed,
    noise=None,
    gamma=None,
    checkpoints=(),
    index_start=0,
):
    """Run n_traj seeded trajectories in lockstep while tracking the gap event,
    the stopped noise martingales, and the maximal-inequality flags.

    Trajectory i is the `dynamics.simulate` run on stream key
    (seed, index_start + i), so ensembles are order-independent and each
    member equals `dynamics.run_trajectory` with that key. The tracking is a
    `dynamics.GapTracker`, the recorder that `simulate`'s step advances;
    p_1 and the martingales are recorded at each checkpoint, a step in
    [0, n_steps]."""
    noise = noise or NoiseModel()
    p0 = as_probability_vector(p0)
    d = p0.size
    gap = _gap(p0)
    if gap <= 0:
        raise InvalidInputError("first coordinate must be strictly dominant")
    gap_gamma = 0.0
    if gamma is not None:
        gamma = validate_correlation(gamma)
        gap_gamma = _gap(gamma @ p0)
        ginf = float(np.abs(gamma).sum(axis=1).max())
        threshold = 0.25 * min(gap, gap_gamma / ginf)
    else:
        threshold = gap / 4.0
    keys = [(seed, index_start + i) for i in range(n_traj)]
    checkpoints = sorted(set(int(c) for c in checkpoints))
    tracker = GapTracker(len(keys), d, alpha, gap, threshold, checkpoints, gamma, gap_gamma)
    p = simulate(np.tile(p0, (len(keys), 1)), alpha, n_steps, keys, noise, gamma=gamma,
                 record=tracker)
    return EnsembleVerification(
        checkpoints=tracker.checkpoints,
        p1_checkpoints=tracker.p1_checkpoints,
        martingale_checkpoints=tracker.martingale_checkpoints,
        theta_hat=tracker.alive,
        ek_violations=tracker.ek_violations,
        final_states=p,
    )


def verification_report(params, alpha, result, correlated_params=None):
    """Summarize an ensemble verification against the theorem's guarantees.

    Returns a JSON-ready dict with the empirical gap-event probability, the
    bound at each checkpoint next to the on-event empirical L1 error, and the
    inclusion-violation count."""
    n = result.theta_hat.size
    prob = float(result.theta_hat.mean())
    rows = []
    for pos, k in enumerate(result.checkpoints):
        if correlated_params is not None:
            bound = float(error_bound_correlated(correlated_params, alpha, int(k)))
        else:
            bound = float(error_bound(params, alpha, int(k)))
        err = 2.0 * (1.0 - result.p1_checkpoints[:, pos])
        on_event = float((err * result.theta_hat).sum() / n)
        rows.append(
            {"k": int(k), "bound": bound, "on_event_mean_l1_error": on_event}
        )
    eps = correlated_params.epsilon if correlated_params is not None else params.epsilon
    return {
        "n_trajectories": int(n),
        "alpha": float(alpha),
        "epsilon": float(eps),
        "empirical_gap_event_probability": prob,
        "guaranteed_gap_event_probability": 1.0 - eps / 2.0,
        "checkpoints": rows,
        "inclusion_violations": int(result.ek_violations),
    }


def priming_delta_max(lam_first, lam_second):
    """Largest delta with max_{i>1} (lam2_i lam1_1 / (lam1_i lam2_1)) * delta/(1-delta) < 1,
    in closed form: 1 / (1 + max ratio)."""
    a = np.asarray(lam_first, dtype=float)
    b = np.asarray(lam_second, dtype=float)
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
    noise=None,
    index_start=0,
):
    """Learn under lam_first for k_switch steps, then under lam_second: one
    `dynamics.simulate` run with the piecewise-constant intensities
    [(0, lam_first), (k_switch, lam_second)], the switch a split of its chunk.

    Preconditions: at w0 the first intensities make coordinate 0 strictly
    dominant and the second make the last coordinate strictly dominant.
    Returns final probabilities (n_traj, d) and the fraction of trajectories
    whose final argmax is each coordinate."""
    noise = noise or NoiseModel()
    lam_a = np.asarray(lam_first, dtype=float)
    lam_b = np.asarray(lam_second, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    d = w0.size
    pa = probabilities_from_weights(lam_a, w0)
    pb = probabilities_from_weights(lam_b, w0)
    errors = []
    if np.argmax(pa) != 0 or _gap(pa) <= 0:
        errors.append("first intensities do not strictly favor coordinate 0 at w0")
    proportional = np.allclose(pb, pa, rtol=1e-12, atol=0.0)
    if not proportional and (
        np.argmax(pb) != d - 1 or pb[d - 1] - np.delete(pb, d - 1).max() <= 0
    ):
        errors.append(
            "second intensities neither match the first nor strictly favor the last coordinate"
        )
    if errors:
        raise InvalidInputError("; ".join(errors))
    keys = [(seed, index_start + i) for i in range(n_traj)]
    w = simulate(np.tile(w0, (len(keys), 1)), alpha, n_steps, keys, noise,
                 lam=[(0, lam_a), (k_switch, lam_b)])
    p_final = probabilities(lam_a if n_steps <= k_switch else lam_b, w)
    winners = np.argmax(p_final, axis=1)
    fractions = np.bincount(winners, minlength=d) / n_traj
    return p_final, fractions
