"""Order statistics used by the benchmark's end-to-end metrics."""

from __future__ import annotations

import statistics

#: jobs that must lie beyond the reported tail latency
TAIL_BEYOND = 10


def tail_latency(latencies, beyond: int = TAIL_BEYOND):
    """Latency at the highest percentile that has at least `beyond` jobs
    above it, as (value, percentile, jobs_beyond).

    The value is the order statistic with exactly `beyond` larger samples.
    With too few jobs that statistic would sit below the median, so the
    rule stops at the middle job (the upper one of the two middle jobs of
    an even count): a short run reports its median as the tail, with the
    true count of jobs beyond it, rather than a "tail" lower than the
    typical job.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        raise ValueError("no latencies to summarize")
    k = max(n - 1 - beyond, n // 2)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def quartile_spread(values) -> float:
    """Run-to-run spread: the distance between the first and third
    quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
