"""Summary statistics shared by the benchmark runner and the suite report.

Standard library only: the runner imports this module without NumPy.
"""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100 * N)-th smallest value.

    It always returns a measured value, never an interpolation: p90 over
    100 latencies is the 90th smallest, and over the 10 ops of a cycle it
    is the 9th.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def best_of(latencies, kinds, repetitions: int) -> list:
    """Fastest time of each op of a cycle, over ``repetitions`` cycles spread
    evenly over the run and over every op of the same kind in them.

    ``latencies`` lists the ops in run order, starting at op 0 of a cycle;
    ``kinds[i]`` names the kind of op ``i`` (the same call on inputs of the
    same size and distribution).  Other tenants of a shared host only ever
    add time, and while they are busy the fastest of a few repetitions is
    still slow, so each op gets the fastest time of its kind, the minimum
    over more samples.  The number of cycles taken is fixed, not set by
    how many fit into the run, so that faster code does not also get a
    minimum over more samples.
    """
    period = len(kinds)
    cycles = len(latencies) // period
    if not 0 < repetitions <= cycles:
        raise ValueError(f"need {repetitions} whole cycles, got {cycles}")
    best = {}
    for c in (k * cycles // repetitions for k in range(repetitions)):
        for i, kind in enumerate(kinds):
            t = latencies[c * period + i]
            best[kind] = min(best.get(kind, t), t)
    return [best[kind] for kind in kinds]


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) by ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf
