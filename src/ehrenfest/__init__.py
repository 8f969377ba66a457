"""Exact hitting-time analytics for the N-urn Ehrenfest chain.

The package computes Laplace transforms, means, variances and arbitrary raw
moments of hitting times for overlap-symmetric target sets in exact rational
arithmetic, cross-checks every formula against an independent linear-algebra
oracle on the enumerated chain, and samples the same quantities by Monte
Carlo (discrete steps or the continuous-time chain they embed into).

Each name is imported from its module (``hitting``, ``closedforms``,
``oracle``, ``mc``, ``model``, ...); the package imports none of them, so a
route loads only its own modules and the oracle and the Monte Carlo run
without the engine.
"""

__version__ = "0.1.0"
