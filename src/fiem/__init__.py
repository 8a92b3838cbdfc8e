"""Incremental EM algorithms with variance reduction and certified step sizes.

The package covers the algorithm family (EM, incremental EM, Online EM, FIEM,
opt-FIEM and the hybrid h-FIEM) over finite-sum curved-exponential-family
models, the nonasymptotic step-size planners with their bound calculators,
two concrete models (a linear-Gaussian toy problem and a shared-covariance
Gaussian mixture) and a seeded Monte Carlo harness.

The top level re-exports nothing: each name lives in the module that defines
it, one of ``algorithms``, ``model``, ``toy``, ``gmm``, ``stepsize``,
``experiments``, ``rng``, ``errors`` and ``cli``.
"""

__version__ = "0.1.0"
