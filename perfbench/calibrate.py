"""Machine-speed calibration for the benchmark's timings.

The shared box the benchmark was sized on switches, every second or so,
between a fast speed and one nearly twice as slow, driven by load outside
the benchmark's own processes.  Wall times of identical work therefore
swing by 30-60% between runs.  Each request is timed between two runs of a
fixed kernel; scaling the request's time by ``REFERENCE_S`` over the
kernel's time turns it into reference seconds: the time the request would
take at the speed where the kernel takes ``REFERENCE_S``.  The raw times
are kept in the run's record next to the scaled ones.

Interpreter-bound code slows down more than big-integer arithmetic does
(about 1.8x against 1.2x), and the workloads mix the two in different
shares, so the kernel spends about half its time on each: exact rational
sums over small numbers, then products, quotients and gcds of 5000-bit
integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

#: Kernel time at the fast speed of a shared 2-core Xeon box (2.1 GHz).
REFERENCE_S = 1.3e-3

_A = 3**3000
_B = 7**2250 + 1


def _kernel() -> None:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    x = _A
    for i in range(4):
        x = x * _B // (_A + i)
        math.gcd(x, _B)


def kernel_s(reps: int = 3) -> float:
    """Fastest of ``reps`` runs of the calibration kernel, in seconds."""
    best = float("inf")
    for _ in range(reps):
        started = perf_counter()
        _kernel()
        best = min(best, perf_counter() - started)
    return best
