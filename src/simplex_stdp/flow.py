"""Deterministic mean-field flows of the learning dynamics.

Every flow is the replicator equation dp/dt = p * (f - p.f 1)
(`simplex.replicator_field`) with fitness f = p, or gamma @ p when a
correlation matrix is given. With f = p it is the negative gradient flow of
the cubic-quartic potential on the simplex. Integration is
fixed-step classical RK4 with a post-step renormalization whose size is
logged. `integrate` runs the steps in the compiled `_kernel.c` when the
kernel loads, otherwise in `_rk4`, its reference: both sum in numpy's
pairwise order rather than through BLAS, so their results agree bit for
bit on every machine.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .dynamics import _gamma_dot, validate_correlation
from .simplex import InvalidInputError, as_probability_vector, recorded_steps, replicator_field


class IntegrationError(InvalidInputError):
    """Raised when the integrator state leaves the simplex beyond tolerance:
    the step size is too coarse for the data."""


@dataclass
class FlowSpec:
    """A flow on the simplex: fitness p (the replicator flow), or gamma @ p
    when gamma is given."""

    p0: object
    horizon: float
    dt: float = 1e-3
    gamma: object = None
    record_stride: int = 1


@dataclass
class FlowTrajectory:
    """Integrated flow with per-recorded-step diagnostics."""

    times: np.ndarray
    states: np.ndarray
    renorm_corrections: np.ndarray


def integrate(spec):
    """Fixed-step RK4 integration of the specified flow.

    After each step the state is renormalized to unit sum and the applied
    correction |sum - 1| is logged. A state leaving [0, 1] by more than 1e-9,
    or not finite, aborts with IntegrationError (step size too coarse for
    the data).
    """
    if not (spec.dt > 0 and spec.horizon >= 0 and math.isfinite(spec.horizon / spec.dt)):
        raise InvalidInputError("need dt > 0 and a finite horizon >= 0, got dt=%r, horizon=%r"
                                % (spec.dt, spec.horizon))
    p = as_probability_vector(spec.p0).copy()
    gamma = None if spec.gamma is None else validate_correlation(spec.gamma, p.size)
    n = int(round(spec.horizon / spec.dt))
    rec = recorded_steps(n, spec.record_stride)
    states = np.empty((rec.size, p.size))
    corrections = np.empty(rec.size)
    run = _rk4 if _kernel.library() is None else _kernel.flow
    left = run(p, gamma, spec.dt, n, rec, states, corrections)
    if left is not None:
        raise IntegrationError(
            "state left the simplex at t=%.6g (min %.3g, max %.3g); reduce dt"
            % (left * spec.dt, p.min(), p.max())
        )
    return FlowTrajectory(times=rec * spec.dt, states=states, renorm_corrections=corrections)


def _rk4(p, gamma, dt, n, rec, states, corrections):
    """n RK4 steps of dt from p, updated in place: at each step in rec the
    state and the last renormalization correction go to the next row of
    states and corrections. Returns the step after which
    the state left the simplex, p then holding that unclipped state, or
    None. The reference of the compiled `_kernel.flow`, taken when the
    kernel does not load."""

    def rhs(q):
        return replicator_field(q, q if gamma is None else _gamma_dot(q[None], gamma)[0])

    pos = 0
    correction = 0.0
    # a coarse step may overflow; the range check below stops the run
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n + 1):
            if pos < rec.size and rec[pos] == k:
                states[pos] = p
                corrections[pos] = correction
                pos += 1
            if k == n:
                return None
            k1 = rhs(p)
            k2 = rhs(p + 0.5 * dt * k1)
            k3 = rhs(p + 0.5 * dt * k2)
            k4 = rhs(p + dt * k3)
            p += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # written so that NaN fails it too
            if not np.all((p >= -1e-9) & (p <= 1.0 + 1e-9)):
                return k + 1
            np.clip(p, 0.0, None, out=p)
            s = p.sum()
            correction = abs(s - 1.0)
            p /= s


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

