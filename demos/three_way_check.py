"""One hitting-time question answered three independent ways.

The closed-form engine, the exact linear-algebra oracle on the enumerated
chain, and a Monte Carlo run must all tell the same story; the first two
agree to the last digit (they are both exact), the third within its error
bars.
"""

from fractions import Fraction as F

from ehrenfest.hitting import HittingQuery, laplace_u, mean, variance
from ehrenfest.mc import SimConfig, sample_hitting
from ehrenfest.model import ModelParams, SetDescriptor
from ehrenfest.oracle import EnumeratedChain, solve_mean, solve_transform

params = ModelParams(urns=3, balls=2)
descriptor = SetDescriptor.count(0)  # empty the reference urn
start = (2, 2)

query = HittingQuery(params, start, descriptor)
print("engine mean:   ", mean(query))
print("engine variance:", variance(query))

chain = EnumeratedChain(params)
print("oracle mean:   ", solve_mean(chain, descriptor, start))

u = F(1)
z = F(params.balls, 1) / (u + params.balls)
print("engine transform at u=1:", laplace_u(query, u))
print("oracle pgf at z=M/(u+M):", solve_transform(chain, descriptor, start, z))

for mode in ("discrete", "ctmc"):
    cfg = SimConfig(replicas=200_000, seed=7, mode=mode)
    summary = sample_hitting(params, start, descriptor, cfg)
    scale = 1 if mode == "discrete" else params.balls
    print(
        f"monte carlo ({mode}): {summary.sample_mean:.4f} "
        f"+- {summary.stderr:.4f}  (exact: {float(mean(query)) / scale:.4f})"
    )
