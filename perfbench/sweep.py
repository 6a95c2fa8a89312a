"""Kernel sweep: per-step cost of the batched gap kernel across batch sizes.

    python3 perfbench/sweep.py SEED [--smoke]

Prints one JSON object: {metric name: {"value", "unit", "chunk_mb"}}.

- sweep.gap.us_per_step.n{N}.d{D}: `theory.run_gap_ensemble`, independent
  triggers. Marginal cost of one lockstep step, from two runs of s and 2s
  steps, so per-trajectory stream set-up cancels out.
- sweep.gap_corr.us_per_step.n{N}.d{D}: the same with correlated triggers.
- sweep.decompose.us.n{N}.d{D}: one call of `dynamics.decompose_steps_batch`,
  the arithmetic of a batched step.
- sweep.noise.ns_per_draw.n{N}.d{D}: one value of `NoiseModel.sample`, drawn
  per trajectory stream as the kernel draws its chunk.

The per-step gap cost minus the arithmetic and draw costs is the interpreter
overhead of the step loop. Step counts keep each point's pre-drawn chunk far
below 0.5 GB (chunk_mb, computed from array sizes) and its run well under two
seconds on a 2-core machine.
"""

import json
import sys
import time

import numpy as np

from simplex_stdp import theory
from simplex_stdp.dynamics import CHUNK, NoiseModel, decompose_steps_batch

GAP_POINTS = [(n, d) for n in (1, 50, 200, 2000) for d in (2, 3, 8)]
CORR_POINTS = [(n, d) for n in (1, 50, 200) for d in (3, 8)]
# steps s of the shorter run, per batch size (the longer run makes 2s)
STEPS = {1: 600, 50: 400, 200: 200, 2000: 40}
ALPHA = 1e-3
MB = float(1 << 20)


def _p0(d):
    p = np.full(d, 0.4 / (d - 1))
    p[0] = 0.6
    return p


def _gamma(d):
    g = np.full((d, d), 0.05)
    np.fill_diagonal(g, 1.0)
    return g


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def gap_point(n, d, steps, seed, gamma=None):
    def run(k):
        # best of two, so that one preempted run does not skew the difference
        return min(
            _timed(lambda: theory.run_gap_ensemble(_p0(d), ALPHA, k, n, seed, gamma=gamma))
            for _ in range(2)
        )

    per_step = (run(2 * steps) - run(steps)) / steps
    pairs = d * (d - 1) // 2 if gamma is not None else 0
    chunk = n * min(CHUNK, 2 * steps) * (1 + d + pairs) * 8
    return 1e6 * per_step, chunk / MB


def decompose_point(n, d, rng, reps):
    p = rng.dirichlet(np.ones(d), size=n)
    y = np.eye(d)[rng.integers(0, d, size=n)] + rng.uniform(-1.0, 1.0, (n, d))
    decompose_steps_batch(p, ALPHA, y)
    t = _timed(lambda: [decompose_steps_batch(p, ALPHA, y) for _ in range(reps)])
    return 1e6 * t / reps


def noise_point(n, d, seed, m):
    noise = NoiseModel()
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
            for i in range(n)]
    t = _timed(lambda: [noise.sample(rng, (m, d)) for rng in rngs])
    return 1e9 * t / (n * m * d), n * m * d * 8 / MB


def main(argv):
    seed = int(argv[0])
    smoke = "--smoke" in argv[1:]
    scale = 0.05 if smoke else 1.0
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    out = {}

    def put(name, value, unit, chunk_mb=0.0):
        out[name] = {"value": value, "unit": unit, "chunk_mb": chunk_mb}

    for n, d in GAP_POINTS:
        steps = max(10, int(STEPS[n] * scale))
        us, mb = gap_point(n, d, steps, seed)
        put("sweep.gap.us_per_step.n%d.d%d" % (n, d), us, "us/step", mb)
    for n, d in CORR_POINTS:
        steps = max(10, int(STEPS[n] * scale))
        us, mb = gap_point(n, d, steps, seed, gamma=_gamma(d))
        put("sweep.gap_corr.us_per_step.n%d.d%d" % (n, d), us, "us/step", mb)
    for n, d in GAP_POINTS:
        reps = max(2, int(200 * scale))
        put("sweep.decompose.us.n%d.d%d" % (n, d), decompose_point(n, d, rng, reps), "us/call")
    for n, d in GAP_POINTS:
        m = max(16, int(min(CHUNK, max(1000, 200_000 // n)) * scale))
        ns, mb = noise_point(n, d, seed, m)
        put("sweep.noise.ns_per_draw.n%d.d%d" % (n, d), ns, "ns/draw", mb)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
