"""Helpers shared by the test modules: a binomial tolerance and a traced memory peak."""

import math
import tracemalloc


def three_sigma(p, n):
    """Three binomial standard errors of a rate ``p`` over ``n`` trials (at least 3e-6/sqrt(n))."""
    return 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)


def traced_peak(call, *args, **kwargs):
    """``call(*args, **kwargs)`` and the peak bytes it allocated, traced by tracemalloc."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
