"""Tour of the exact hitting-time engine.

Computes means, variances, higher moments and Laplace-transform samples for
the classical target families of the 3-urn, 2-ball chain, all in exact
rational arithmetic.
"""

from fractions import Fraction as F

from ehrenfest.closedforms import same_urn_stats
from ehrenfest.hitting import HittingQuery, ctmc_stats, laplace_lambda, laplace_u, mean, raw_moments, variance
from ehrenfest.model import ModelParams, SetDescriptor

params = ModelParams(urns=3, balls=2)

print("== hitting a fixed state from a disjoint start ==")
query = HittingQuery(params, (1, 1), SetDescriptor.singleton((2, 2)))
print("mean steps:     ", mean(query))
print("variance:       ", variance(query))
print("moments 1..4:   ", raw_moments(query, 4))
print("E[e^{-u T_Y}]  at u=1:   ", laplace_u(query, 1))
print("E[e^{-l T}]    at l=ln2: ", float(laplace_lambda(query, 0.6931471805599453)))
print("continuous-time mean/variance:", ctmc_stats(query))

print()
print("== first time both balls share an urn, from (1, 2) ==")
diag = HittingQuery(params, (1, 2), SetDescriptor.diagonal())
print("mean steps:", mean(diag))
stats = same_urn_stats(params, (1, 2))
print("exit split over urns 1..3:", stats.exit_probs)

print()
print("== transform samples decrease in u ==")
for u in (F(1, 4), F(1, 2), F(1), F(2), F(4)):
    print(f"  u={u}: {laplace_u(query, u)}")
