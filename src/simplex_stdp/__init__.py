"""Hebbian STDP learning dynamics on the probability simplex.

Subpackages:
  simplex   - simplex primitives, the cubic-quartic potential, critical points
  dynamics  - stochastic multiplicative updates, the stepping kernel, gap tracking
  flow      - deterministic replicator-type flows and RK4 integration
  theory    - convergence constants and tracked ensemble verification
  multi     - multi-output (deflation-based) learning schemes
  spiking   - event-driven integrate-and-fire model with timing-kernel updates
  mirror    - entropic mirror descent comparison
  cli       - scenario-driven command-line front end
"""

__version__ = "0.1.0"
