"""Deterministic mean-field flows of the learning dynamics.

The baseline flow is the replicator equation dp/dt = p * (p - ||p||^2 1),
which is the negative gradient flow of the cubic-quartic potential on the
simplex. Variants cover a correlation matrix acting on the fitness and a
time-varying intensity term. Integration is fixed-step classical RK4 with a
post-step renormalization whose size is logged.
"""

from dataclasses import dataclass, field

import numpy as np

from .simplex import InvalidInputError, as_probability_vector


class IntegrationError(RuntimeError):
    """Raised when the integrator state leaves the simplex beyond tolerance."""


@dataclass
class FlowSpec:
    """A flow on the simplex.

    fitness_kind: "self" (replicator / negative potential gradient),
    "correlated" (fitness gamma @ p), or "inhomogeneous" (adds the log
    derivative of the intensity schedule to the fitness).
    """

    p0: object
    horizon: float
    dt: float = 1e-3
    fitness_kind: str = "self"
    gamma: object = None
    log_intensity_derivative: object = None
    record_stride: int = 1

    def validated(self):
        errors = []
        if self.dt <= 0:
            errors.append("dt must be positive")
        if self.horizon < 0:
            errors.append("horizon must be nonnegative")
        if self.fitness_kind not in ("self", "correlated", "inhomogeneous"):
            errors.append("unknown fitness_kind %r" % self.fitness_kind)
        if self.fitness_kind == "correlated" and self.gamma is None:
            errors.append("correlated flow requires gamma")
        if self.fitness_kind == "inhomogeneous" and self.log_intensity_derivative is None:
            errors.append("inhomogeneous flow requires log_intensity_derivative")
        if errors:
            raise InvalidInputError("; ".join(errors))
        return self


def replicator_rhs(p):
    """dp/dt = p * (p - ||p||^2 1)."""
    return p * (p - np.dot(p, p))


def correlated_rhs(p, gamma):
    """dp/dt = p * (gamma p - p.gamma p 1)."""
    f = gamma @ p
    return p * (f - np.dot(p, f))


def inhomogeneous_rhs(p, t, log_intensity_derivative):
    """dp/dt = p * (g + p - p.(g + p) 1) with g = d/dt log intensity(t)."""
    g = np.asarray(log_intensity_derivative(t), dtype=float)
    f = g + p
    return p * (f - np.dot(p, f))


@dataclass
class FlowTrajectory:
    """Integrated flow with per-recorded-step diagnostics."""

    times: np.ndarray
    states: np.ndarray
    renorm_corrections: np.ndarray
    sum_squares: np.ndarray


def integrate(spec):
    """Fixed-step RK4 integration of the specified flow.

    After each step the state is renormalized to unit sum and the applied
    correction |sum - 1| is logged. A state leaving [0, 1] by more than 1e-9
    aborts with IntegrationError (step size too coarse for the data).
    """
    spec.validated()
    p = as_probability_vector(spec.p0).copy()
    gamma = None
    if spec.fitness_kind == "correlated":
        gamma = np.asarray(spec.gamma, dtype=float)
    n = int(round(spec.horizon / spec.dt))
    dt = spec.dt

    def rhs(t, q):
        if spec.fitness_kind == "self":
            return replicator_rhs(q)
        if spec.fitness_kind == "correlated":
            return correlated_rhs(q, gamma)
        return inhomogeneous_rhs(q, t, spec.log_intensity_derivative)

    rec = list(range(0, n + 1, spec.record_stride))
    if rec[-1] != n:
        rec.append(n)
    rec = np.array(rec, dtype=int)
    times = rec * dt
    states = np.empty((rec.size, p.size))
    corrections = np.empty(rec.size)
    sumsq = np.empty(rec.size)
    pos = 0
    correction = 0.0
    for k in range(n + 1):
        if pos < rec.size and rec[pos] == k:
            states[pos] = p
            corrections[pos] = correction
            sumsq[pos] = np.dot(p, p)
            pos += 1
        if k == n:
            break
        t = k * dt
        k1 = rhs(t, p)
        k2 = rhs(t + 0.5 * dt, p + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, p + 0.5 * dt * k2)
        k4 = rhs(t + dt, p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if np.any(p < -1e-9) or np.any(p > 1.0 + 1e-9):
            raise IntegrationError(
                "state left the simplex at t=%.6g (min %.3g, max %.3g); reduce dt"
                % (t + dt, p.min(), p.max())
            )
        np.clip(p, 0.0, None, out=p)
        s = p.sum()
        correction = abs(s - 1.0)
        p = p / s
    return FlowTrajectory(
        times=times, states=states, renorm_corrections=corrections, sum_squares=sumsq
    )


def exact_d2(p1_initial, t):
    """Closed-form replicator solution for d = 2 started at (p1, 1 - p1) with
    p1 > 1/2: p1(t) = 1/2 + 1 / (2 sqrt(C e^{-t} + 1)), C = 1/(2 p1 - 1)^2 - 1."""
    if not 0.5 < p1_initial < 1.0:
        raise InvalidInputError("closed form needs p1(0) in (1/2, 1)")
    c = 1.0 / (2.0 * p1_initial - 1.0) ** 2 - 1.0
    t = np.asarray(t, dtype=float)
    return 0.5 + 0.5 / np.sqrt(c * np.exp(-t) + 1.0)


def flow_gap(p0):
    """Gap of the leading coordinate: max(p0) - second largest."""
    p0 = np.asarray(p0, dtype=float)
    order = np.argsort(p0)[::-1]
    return p0[order[0]] - p0[order[1]], int(order[0])


def flow_bound(p0, t):
    """L1 convergence bound for the replicator flow toward the dominant vertex:

        ||p(t) - e_star||_1 <= 2 (1 - p_star(0)) exp(-(gap/d)(1 + (d-1) gap) t)

    where p_star(0) = max(p0) and gap is its margin over the runner-up
    (must be positive)."""
    p0 = np.asarray(p0, dtype=float)
    gap, star = flow_gap(p0)
    if gap <= 0:
        raise InvalidInputError("leading coordinate must be strictly dominant")
    d = p0.size
    rate = (gap / d) * (1.0 + (d - 1) * gap)
    t = np.asarray(t, dtype=float)
    return 2.0 * (1.0 - p0[star]) * np.exp(-rate * t)

