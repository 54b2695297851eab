"""Order statistics shared by run.py and compare.py."""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer, one outlier decides the value.
MIN_BEYOND = 10


class TailError(ValueError):
    """A tail percentile was asked of too few samples."""


def percentile(samples, p):
    """Nearest-rank p-th percentile (0 < p < 100) of `samples`.

    Above the median, refuses (TailError) unless at least MIN_BEYOND
    samples lie beyond the returned rank: p99 needs 1000 samples, p90 100.
    """
    n = len(samples)
    if n == 0:
        raise TailError("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if p > 50 and beyond < MIN_BEYOND:
        raise TailError(
            f"p{p:g} of {n} samples has {beyond} beyond it; "
            f"needs {MIN_BEYOND} ({math.ceil(MIN_BEYOND / (1 - p / 100.0))} samples)")
    return sorted(samples)[rank - 1]


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def self_test():
    """Checks of the percentile helper; returns a list of failures."""
    failures = []
    ramp = list(range(1, 1001))
    if percentile(ramp, 99) != 990:
        failures.append("p99 of 1..1000 should be 990")
    if percentile(ramp, 50) != 500:
        failures.append("p50 of 1..1000 should be 500")
    for n, p in ((999, 99), (99, 90), (19, 50.1)):
        try:
            percentile(list(range(n)), p)
            failures.append(f"p{p} of {n} samples should be refused")
        except TailError:
            pass
    for n, p in ((1000, 99), (100, 90)):
        try:
            percentile(list(range(n)), p)
        except TailError:
            failures.append(f"p{p} of {n} samples should be allowed")
    if quartiles([1.0, 2.0, 3.0, 4.0]) != (1.25, 2.5, 3.75):
        failures.append("quartiles must match statistics.quantiles(n=4)")
    return failures
