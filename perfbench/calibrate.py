"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The machine this benchmark was tuned on runs the same code up to twice as
slowly, in stretches from under a second to minutes, so a wall time alone
says as much about the machine as about ``hublocate``.  The benchmark
times this kernel before and after every CLI call and reports the call's
time in reference seconds: its wall time scaled by ``REFERENCE_S`` over
the mean of the two kernel times.  The kernel uses nothing from
``hublocate``, so no change to the program can change it; it mixes what
the program's hot paths do (float arithmetic, bisection in tariff tables,
attribute and dict access, small tuples, sorting, text formatting) so
that both slow down alike.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter

# Near the kernel's median time on the 2-core machine the benchmark was
# tuned on, with Python 3.11.7 (4.6 ms when the host was quiet, 7.9 ms when
# it was busy).  One reference second is a second of wall time on a machine
# where the kernel takes this long; the constant only scales the values.
REFERENCE_S = 0.004


@dataclass(frozen=True)
class _Band:
    breaks: tuple
    prices: tuple


_BANDS = tuple(
    _Band(tuple(float(5 * k + j) for k in range(1, 9)), tuple(10.0 + 3 * k + j for k in range(9)))
    for j in range(7)
)


def kernel() -> float:
    """The fixed work; returns a checksum so that nothing is optimised away."""
    total = 0.0
    seen: dict = {}
    rows = []
    for i in range(5200):
        band = _BANDS[i % 7]
        v = (i * 37 % 101) * 0.45
        n = int(math.floor(v / 40.0))
        rest = v - n * 40.0
        price = n * band.prices[-1] + band.prices[bisect_right(band.breaks, rest)]
        key = (i % 13, i % 17)
        seen[key] = seen.get(key, 0.0) + price
        total += price
        if i % 8 == 0:
            rows.append((price, key))
    rows.sort()
    text = " ".join(f"{p:.6f}" for p, _ in rows[:250])
    return total + len(text) + len(seen)


def sample() -> float:
    """Wall time of one run of the kernel, with the garbage collector held off.

    Holding it off keeps the jobs' leftover heap from slowing the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Wraps a CLI call function, timing each call and the kernel after it.

    ``wall_s`` and ``ref_s`` sum the wall and reference seconds of the
    calls since the last ``reset``; the kernel's own time counts in
    neither.
    """

    def __init__(self, call):
        self.call = call
        self.before = sample()
        self.samples = [self.before]
        self.reset()

    def reset(self) -> None:
        self.wall_s = self.ref_s = 0.0

    def __call__(self, argv):
        start = perf_counter()
        outcome = self.call(argv)
        elapsed = perf_counter() - start
        after = sample()
        self.samples.append(after)
        self.wall_s += elapsed
        self.ref_s += elapsed * REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return outcome
