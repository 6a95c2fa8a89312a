"""Hebbian STDP learning dynamics on the probability simplex.

Subpackages:
  simplex   - simplex primitives, the cubic-quartic potential, critical points
  dynamics  - stochastic multiplicative updates, the stepping kernel, gap tracking
  flow      - deterministic replicator-type flows and RK4 integration
  theory    - convergence constants and tracked ensemble verification
  multi     - multi-output (deflation-based) learning schemes
  spiking   - event-driven integrate-and-fire model with timing-kernel updates
  mirror    - entropic mirror descent comparison
  cli       - scenario-driven command line front end
"""

import os

# Set before any submodule imports numpy, which reads it once on import. The
# package's BLAS operands are vectors of a few entries and its ensembles run
# as one batch in one thread, so extra OpenBLAS threads do no work; yet each
# one busy-waits after numpy's import before it sleeps, which cost about
# 0.1 s of CPU per process on a 2-core machine. A value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
