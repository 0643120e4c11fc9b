"""Percentiles and sample summaries for the benchmark's reports.

The serving stack's own ``_percentile`` helpers round to the nearest
rank, so with few samples p99 collapses to the maximum.  These
interpolate linearly between closest ranks (the "inclusive" method of
:func:`statistics.quantiles`) and always travel with their sample
count.  A failed request enters a latency sample as ``inf``: it misses
every latency limit, so it can only push a percentile up.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: Stand-in for an infinite latency in JSON output, which has no inf.
INFINITE = 1.0e12

#: Percentiles offered for a tail figure, highest first.
TAIL_CANDIDATES = (0.999, 0.99, 0.9)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 <= q <= 1)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    frac = pos - lo
    if frac == 0.0:
        return ordered[lo]
    hi = ordered[lo + 1]
    if math.isinf(hi):
        return hi
    return ordered[lo] + (hi - ordered[lo]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def tail_quantile(n: int) -> Optional[float]:
    """Highest candidate percentile with ``MIN_BEYOND`` samples past it."""
    for q in TAIL_CANDIDATES:
        if round(n * (1.0 - q), 9) >= MIN_BEYOND:
            return q
    return None


def summary(values: Sequence[float]) -> Dict[str, object]:
    """``n``, p50, p90, the supported tail percentile, and max."""
    out: Dict[str, object] = {"n": len(values)}
    if not values:
        return out
    out["p50"] = finite(percentile(values, 0.5))
    out["p90"] = finite(percentile(values, 0.9))
    tail = tail_quantile(len(values))
    if tail is not None:
        out["tail_q"] = tail
        out["tail"] = finite(percentile(values, tail))
    out["max"] = finite(max(values))
    return out


def finite(value: float) -> float:
    """``value``, with inf replaced by :data:`INFINITE` for JSON."""
    return INFINITE if math.isinf(value) else float(value)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
