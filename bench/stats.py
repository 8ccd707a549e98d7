"""Order statistics used by the benchmark report."""

TAIL_BEYOND = 10  # samples that must lie above the reported tail


def median(samples) -> float:
    xs = sorted(samples)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(samples, beyond: int = TAIL_BEYOND):
    """(value, percentile, n) of the highest nearest-rank percentile that
    leaves at least ``beyond`` samples above it, never below the median.

    With too few samples for such a percentile to reach the median, the
    median is returned, flagged by a percentile of 50.
    """
    xs = sorted(samples)
    n = len(xs)
    mid = median(xs)
    rank = n - beyond  # 1-based rank with exactly `beyond` samples above
    if rank < 1 or xs[rank - 1] < mid:
        return mid, 50.0, n
    return xs[rank - 1], 100.0 * rank / n, n
