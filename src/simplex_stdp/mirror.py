"""Entropic mirror descent on the simplex and its multiplicative surrogate.

For the quadratic objective f(p) = -||p||^2 / 2 (gradient -p), the exact
entropic step is p_i exp(alpha p_i) / Z while the learning dynamics' mean
update is the multiplicative step p_i (1 + alpha p_i) / Z'. The two agree to
first order in alpha; their gap shrinks quadratically."""

import numpy as np

from .simplex import as_probability_vector


def entropic_step(p, alpha):
    """Exact mirror-descent step with entropy mirror map for the gradient
    g = -p: p_i exp(-alpha g_i) / sum_j p_j exp(-alpha g_j)."""
    p = as_probability_vector(p)
    num = p * np.exp(alpha * p)
    return num / num.sum()


def multiplicative_step(p, alpha):
    """First-order surrogate for the gradient g = -p,
    p_i (1 - alpha g_i) / sum_j p_j (1 - alpha g_j), matching the mean motion
    of the stochastic rule."""
    p = as_probability_vector(p)
    num = p * (1.0 + alpha * p)
    return num / num.sum()


def order_comparison(p, alphas):
    """Sup-norm gap between the entropic and multiplicative steps for each
    rate; the gap scales like alpha^2."""
    p = as_probability_vector(p)
    out = []
    for a in alphas:
        diff = entropic_step(p, a) - multiplicative_step(p, a)
        out.append(float(np.abs(diff).max()))
    return np.array(out)
