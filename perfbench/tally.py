"""Order statistics and host-speed scaling for job timings."""

TAIL_BEYOND = 10


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail(values, beyond=TAIL_BEYOND):
    """Highest-ranked sample with at least ``beyond`` samples above it.

    Returns (value, percentile): the sample of rank n - beyond in ascending
    order, and that rank as a percentage of n.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    rank = n - beyond
    return sorted(values)[rank - 1], 100.0 * rank / n


def scaled(times, cals, reference):
    """Each time rescaled to a host on which one calibration takes
    ``reference`` seconds, by the mean of the calibrations just before and
    just after it; ``cals`` holds one more entry than ``times``."""
    if len(cals) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} calibrations")
    return [
        t * reference / (0.5 * (cals[k] + cals[k + 1])) for k, t in enumerate(times)
    ]
