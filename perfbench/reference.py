"""The reference job that op and set-up times are scaled by.

The speed of a shared host drifts by tens of percent within seconds.  Timing
this fixed pure-Python job, which runs no kdl code, next to the program gives
the host's current speed; a time multiplied by ``REFERENCE_S`` over the
job's time is the time the host would have taken at the reference speed.
This module imports nothing beyond what the interpreter loads at start-up,
so the worker can load it before it times the import of kdl.
"""

import math
import time

# What reference_work takes, best of three, on the host the scale is set to.
REFERENCE_S = 2.0e-3


class _Point:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def key(self):
        return (self.a, self.b)


def reference_work() -> int:
    """A fixed job in the style of the workloads: objects, tuples, dicts, gcd."""
    table, acc = {}, 0
    for i in range(1500):
        point = _Point(i, (i, i + 1), [i])
        table[point.key()] = point
        acc += math.gcd(i, 360) + len(table[point.key()].b)
    return acc


def reference_seconds() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best
