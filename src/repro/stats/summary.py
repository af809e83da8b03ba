"""Percentile/CDF helpers used by experiments and reports.

numpy is imported inside the functions that call it: loading it costs
more than loading the rest of ``repro``, and sweeps, the live client and
the CLI import this module without ever taking a percentile (DESIGN.md,
"Cold start").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def percentile(samples: Sequence[float], pctl: float) -> float:
    """Tail percentile (e.g. 99.9) of a sample set; NaN when empty."""
    if len(samples) == 0:
        return float("nan")
    import numpy as np

    return float(np.percentile(np.asarray(samples, dtype=float), pctl))


def p99(samples: Sequence[float]) -> float:
    return percentile(samples, 99.0)


def p999(samples: Sequence[float]) -> float:
    return percentile(samples, 99.9)


def cdf_points(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) pairs."""
    if len(samples) == 0:
        return []
    import numpy as np

    arr = np.sort(np.asarray(samples, dtype=float))
    n = len(arr)
    return [(float(v), (i + 1) / n) for i, v in enumerate(arr)]


def mean(samples: Sequence[float]) -> float:
    if len(samples) == 0:
        return float("nan")
    import numpy as np

    return float(np.mean(np.asarray(samples, dtype=float)))


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p99 / p999 / max in one dict (NaN when empty)."""
    if len(samples) == 0:
        nan = float("nan")
        return {"count": 0, "mean": nan, "p50": nan, "p99": nan, "p999": nan, "max": nan}
    import numpy as np

    arr = np.asarray(samples, dtype=float)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p99": float(np.percentile(arr, 99)),
        "p999": float(np.percentile(arr, 99.9)),
        "max": float(arr.max()),
    }


def relative_gap(a: float, b: float) -> float:
    """|a-b| / max(|a|,|b|) — scale-free closeness used in fairness checks."""
    denom = max(abs(a), abs(b))
    if denom == 0:
        return 0.0
    return abs(a - b) / denom
