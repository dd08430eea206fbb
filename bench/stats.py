"""Order statistics shared by the run and compare commands.

Pure Python on purpose: the harness times ``import repro`` (and with it
NumPy) as part of set-up, so nothing here may import NumPy first.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["TAIL_LADDER", "tail_percentile", "percentile", "quartiles"]

#: Percentiles a tail timing may be reported at, lowest first.
TAIL_LADDER = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of ``n`` samples
    beyond it; the median when no higher percentile qualifies."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10.0 - 1e-9:
            best = q
    return best


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (NumPy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    xs = list(values)
    if not xs:
        raise ValueError("quartiles of an empty sample")
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3
