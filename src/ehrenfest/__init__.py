"""Exact hitting-time analytics for the N-urn Ehrenfest chain.

The package computes Laplace transforms, means, variances and arbitrary raw
moments of hitting times for overlap-symmetric target sets in exact rational
arithmetic, cross-checks every formula against an independent linear-algebra
oracle on the enumerated chain, and samples the same quantities by Monte
Carlo (discrete steps or the continuous-time chain they embed into).

The top level re-exports the engine's and the closed forms' names that the
README and the demos use; it loads no numpy.  The oracle's names come from
``ehrenfest.oracle`` and the Monte Carlo's from ``ehrenfest.mc``, which import
numpy; everything else is imported from its submodule too.
"""

from .model import ModelParams, SetDescriptor, overlap
from .hitting import (
    HittingQuery,
    ctmc_stats,
    laplace_lambda,
    laplace_u,
    mean,
    raw_moments,
    variance,
)
from .closedforms import (
    CountChain,
    count_set_mean,
    network_commute_check,
    same_urn_stats,
)

__version__ = "0.1.0"
