"""Convergence guarantees for the stochastic dynamics and their empirical
verification.

Quantities implemented here, for an initial p with a strictly dominant first
coordinate (gap = p_1(0) - max_{i>=2} p_i(0) > 0), noise bound Q and
triggers correlated through a matrix gamma (`GapParams`; independent
triggers are the gamma = I case, given as gamma None, where every formula
reduces to its independent-trigger form):

* the largest admissible step size (an implicit inequality in alpha, solved
  by bisection on (0, 1/Q)),
* the exponential L1 error bound along the dynamics,
* the iteration count sufficient to reach a target error with the stated
  confidence,
* ensemble runs tracking the gap-maintenance event, the per-coordinate
  stopped noise martingales and the maximal-inequality events whose
  intersection forces the gap to persist (`dynamics.GapTracker`),
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
    """Inputs of the convergence theorem: triggers correlated through gamma,
    or independent (gamma None, the gamma = I case).

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
    q_bound: float = 2.0
    epsilon: float = 0.1

    def __post_init__(self):
        p0 = as_probability_vector(self.p0)
        object.__setattr__(self, "p0", p0)
        if self.gamma is not None:
            object.__setattr__(self, "gamma", validate_correlation(self.gamma, p0.size))
        if not 0 < self.epsilon < 1:
            raise InvalidInputError("epsilon must lie in (0, 1)")
        if self.q_bound <= 1:
            raise InvalidInputError("q_bound must exceed 1")
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
        return _gap(self.p0)

    @property
    def gap_gamma(self):
        return _gap(self._gamma @ self.p0)

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
    q, d = params.q_bound, params.d
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

    return _bisect_alpha(rhs, q)


def error_bound(params, alpha, k):
    """E[||p(k) - e_1||_1 on the gap event] <=
    2 (1 - p_1(0)) exp(-(alpha gap_gamma / 16)(4/d + gap) k)."""
    k = np.asarray(k, dtype=float)
    rate = (alpha * params.gap_gamma / 16.0) * (4.0 / params.d + params.gap)
    return 2.0 * (1.0 - params.p0[0]) * np.exp(-rate * k)


def iterations_for(params, alpha, delta):
    """Steps sufficient for E[||p(k) - e_1||_1 on the gap event] <= eps*delta/2,
    i.e. k >= (16 d / (alpha gap_gamma (4 + d gap))) log(4 (1 - p_1(0)) / (eps delta)).
    `GapParams` makes both gaps finite and positive."""
    if not 0 < delta < 1 or not alpha > 0:
        raise InvalidInputError("need delta in (0, 1) and alpha > 0, got delta=%r, alpha=%r"
                                % (delta, alpha))
    arg = 4.0 * (1.0 - params.p0[0]) / (params.epsilon * delta)
    denom = alpha * params.gap_gamma * (4.0 + params.d * params.gap)
    return int(np.ceil(16.0 * params.d / denom * np.log(arg)))


@dataclass
class EnsembleVerification:
    """Vectorized ensemble run with event tracking.

    theta_hat[i] says the half-gap condition held through the whole horizon
    for trajectory i. p1_checkpoints has shape (n_traj, n_checkpoints), with
    the tail masses sum_{j>=2} p_j and martingale values alongside.
    ek_violations counts steps where the maximal-inequality event held but
    the gap condition failed at the next step (the inclusion lemma says this
    must be zero for admissible alpha).
    """

    checkpoints: np.ndarray
    p1_checkpoints: np.ndarray
    tail_checkpoints: np.ndarray
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
    `dynamics.GapTracker`, the recorder that `simulate`'s step advances and
    that checks the gamma @ p gap with the run's gamma when it is given;
    p_1, the tail mass and the martingales are recorded at each checkpoint,
    a step in [0, n_steps]."""
    noise = noise or NoiseModel()
    params = GapParams(p0, gamma, q_bound=noise.q_bound)
    keys = [(seed, index_start + i) for i in range(n_traj)]
    checkpoints = sorted(set(int(c) for c in checkpoints))
    tracker = GapTracker(len(keys), params.d, alpha, params.gap, params.martingale_threshold,
                         checkpoints, params.gap_gamma)
    p = simulate(np.tile(params.p0, (len(keys), 1)), alpha, n_steps, keys, noise,
                 gamma=params.gamma, record=tracker)
    return EnsembleVerification(
        checkpoints=tracker.checkpoints,
        p1_checkpoints=tracker.p1_checkpoints,
        tail_checkpoints=tracker.tail_checkpoints,
        martingale_checkpoints=tracker.martingale_checkpoints,
        theta_hat=tracker.alive,
        ek_violations=tracker.ek_violations,
        final_states=p,
    )


def verification_report(params, alpha, result):
    """Summarize an ensemble verification against the theorem's guarantees.

    Returns a JSON-ready dict with the empirical gap-event probability, the
    bound at each checkpoint next to the on-event empirical L1 error, and the
    inclusion-violation count. The L1 error ||p - e_1||_1 is twice the tail
    mass sum_{j>=2} p_j, which stays positive where 1 - p_1 rounds to 0."""
    n = result.theta_hat.size
    prob = float(result.theta_hat.mean())
    rows = []
    for pos, k in enumerate(result.checkpoints):
        bound = float(error_bound(params, alpha, int(k)))
        err = 2.0 * result.tail_checkpoints[:, pos]
        on_event = float((err * result.theta_hat).sum() / n)
        rows.append(
            {"k": int(k), "bound": bound, "on_event_mean_l1_error": on_event}
        )
    return {
        "n_trajectories": int(n),
        "alpha": float(alpha),
        "epsilon": float(params.epsilon),
        "empirical_gap_event_probability": prob,
        "guaranteed_gap_event_probability": 1.0 - params.epsilon / 2.0,
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
