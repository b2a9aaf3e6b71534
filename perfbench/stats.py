"""Order statistics the benchmark reports.

Every timing the benchmark prints is a median, or a tail percentile that
the sample supports: a percentile above the median is reported only when
at least MIN_BEYOND samples lie beyond it (so p99 needs 1000 samples).
The daemon's latencies arrive as a fixed-bucket histogram instead of raw
samples; histogram_percentile reads them under the same rule.
"""
import math
import statistics

MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A tail percentile was asked of a sample too small to support it."""


def median(values):
    if not values:
        raise InsufficientSamples("median of an empty sample")
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) exactly as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise InsufficientSamples("quartiles need at least 2 samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def _tail_rank(count, q):
    """Nearest rank (1-based) of percentile q in a sample of `count`."""
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    rank = max(1, math.ceil(q / 100.0 * count))
    if q > 50 and count - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {count} samples has {count - rank} beyond it; "
            f"at least {MIN_BEYOND} are required")
    return rank


def percentile(values, q):
    """Nearest-rank percentile; tail percentiles obey the MIN_BEYOND rule."""
    if q == 50:
        return median(values)
    ordered = sorted(values)
    return ordered[_tail_rank(len(ordered), q) - 1]


def histogram_percentile(bounds, counts, q):
    """Percentile of a fixed-bucket histogram (pcss::obs::metrics layout).

    `bounds` are ascending inclusive upper edges and `counts` has one more
    entry, the overflow bucket. The value is interpolated linearly inside
    the bucket that holds the nearest rank; the first bucket starts at 0.
    A rank that falls in the overflow bucket has no upper edge, so it
    raises rather than invent one.
    """
    if len(counts) != len(bounds) + 1:
        raise ValueError("a histogram has one more count than bounds")
    total = sum(counts)
    if total == 0:
        raise InsufficientSamples("empty histogram")
    rank = _tail_rank(total, q)
    seen = 0
    for i, count in enumerate(counts):
        if count and seen + count >= rank:
            if i == len(bounds):
                raise InsufficientSamples(
                    f"p{q:g} lies in the overflow bucket above {bounds[-1]}")
            lower = bounds[i - 1] if i > 0 else 0.0
            return lower + (bounds[i] - lower) * (rank - seen) / count
        seen += count
    raise AssertionError("rank beyond the histogram total")
