"""The count-of-one-urn projection as a weighted walk on a path.

Tracking only how many balls sit in urn 2 turns the chain into a birth-death
walk with self-loops.  The demo prints its conductances, verifies that the
full chain and the projected chain give identical hitting means, and checks
the commute-time identity: mean there + mean back equals total vertex weight
times the effective resistance between the two levels.
"""

from fractions import Fraction

from ehrenfest import (
    CountChain,
    ModelParams,
    SetDescriptor,
    count_set_mean,
    network_commute_check,
    overlap,
)
from ehrenfest.oracle import EnumeratedChain, lumped_count_oracle, solve_mean

params = ModelParams(urns=3, balls=3)
chain = CountChain(params)

print("level:  down  stay  up      conductance-up  vertex-weight")
n, m = params.urns, params.balls
for level in range(m + 1):
    # one of the m balls moves to one of the other n-1 urns: down when it leaves urn 2, up when it enters it
    down = Fraction(level, m)
    up = Fraction(m - level, m * (n - 1))
    stay = 1 - down - up
    print(
        f"  {level}:   {down!s:>5} {stay!s:>5} {up!s:>5}"
        f"      {chain.conductance_up(level)!s:>8}      {chain.vertex_weight(level)!s:>8}"
    )

print()
full = EnumeratedChain(params)
start = (1, 1, 1)
for h in (0, 2, 3):
    targets = SetDescriptor.count(h).materialize(params)
    level = overlap(start, (2, 2, 2))
    print(
        f"mean to count={h}: full chain {solve_mean(full, targets, start)}, "
        f"projected {lumped_count_oracle(params, level, h)}, "
        f"closed form {count_set_mean(params, level, h)}"
    )

print()
for h, k in ((0, 2), (1, 3), (0, 3)):
    check = network_commute_check(params, h, k)
    print(f"commute {h}<->{k}: {check.lhs} == {check.rhs}  ({check.equal})")
