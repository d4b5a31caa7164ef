"""Machine-speed probe that puts every reported time on one scale.

The benchmark runs on shared machines whose speed drifts. On two cores of
a shared Xeon, one fixed computation timed in 5-second blocks ranged over
0.18-0.29 s, and the same 30-second run ranged over 1.15-1.60 s within
minutes; CPU time drifted exactly as wall time did. So the benchmark
probes the machine's speed before the first and after every timed call.
The probe is a fixed pure-Python computation that never touches spectrees:
it encodes a fixed random tree and runs a float loop, the same kind of work
the library does. A single probe is noisy (about 10 %), so a run uses one
scale for all its times:

    reported seconds = raw seconds * NOMINAL_S / (median probe of the run),

the seconds the calls would have taken with the probe at NOMINAL_S. Raw
seconds are printed beside the reported values.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

import reference
import workloads

# Median probe time on the machine the benchmark was defined on (see README).
NOMINAL_S = 0.005

_N = 600
_EDGES = workloads.prufer_tree(random.Random(0), _N)


def probe() -> float:
    """Seconds one fixed computation takes right now (median of three).

    Garbage is collected first, so the heap a task left behind does not
    slow the probe.
    """
    gc.collect()
    times = []
    for _ in range(3):
        start = perf_counter()
        reference.iso_key(_N, _EDGES)
        x = 0.0
        for i in range(40000):
            x += 1.0 / (i + 1.5)
        times.append(perf_counter() - start)
    return sorted(times)[1]


def scale(probes) -> float:
    """Factor from raw seconds to seconds at the nominal probe time."""
    return NOMINAL_S / statistics.median(probes)
