"""Speed probe: how fast this machine runs fixed pure-Python work right now.

On a shared host the same job's time drifts by tens of percent between runs.
``run.py`` times ``reference_work`` just before it starts each job's
interpreter and just after that interpreter has exited, and divides the job's
times by the mean probe, scaled to ``NOMINAL_S``.  The work mixes what
orbimirror spends its time on: exact rational arithmetic, small-int tuples
and dict traffic.  It runs in the benchmark's own process and never touches
orbimirror, so a change to the program cannot change the probe.
"""

import gc
import time
from fractions import Fraction

NOMINAL_S = 0.002   # scaled times are seconds at a probe time of 2 ms
REPEATS = 3


def reference_work() -> Fraction:
    table = {}
    for i in range(1, 600):
        table[(i % 61, i)] = Fraction(i, i % 7 + 1)
    total = Fraction(0)
    for key in sorted(table, key=lambda k: (k[1] % 13, k)):
        total += table[key]
    return total


def probe() -> float:
    """Median time of REPEATS runs of ``reference_work``, in seconds, after
    one untimed warm-up run, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_work()
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[REPEATS // 2]
