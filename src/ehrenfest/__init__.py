"""Exact hitting-time analytics for the N-urn Ehrenfest chain.

The package computes Laplace transforms, means, variances and arbitrary raw
moments of hitting times for overlap-symmetric target sets in exact rational
arithmetic, cross-checks every formula against an independent linear-algebra
oracle on the enumerated chain, and samples the same quantities by Monte
Carlo (discrete steps or the continuous-time chain they embed into).

The top level re-exports the names the README and the demos use; everything
else is imported from its submodule (``ehrenfest.oracle``, ``ehrenfest.mc``, ...).
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
from .oracle import EnumeratedChain, lumped_count_oracle, solve_mean, solve_transform
from .mc import SimConfig, sample_hitting

__version__ = "0.1.0"
