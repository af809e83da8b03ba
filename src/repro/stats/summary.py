"""Percentile and closeness helpers used by experiments and reports.

numpy is imported inside the function that calls it: loading it costs
more than loading the rest of ``repro``, and sweeps, the live client and
the CLI import this module without ever taking a percentile (DESIGN.md,
"Cold start").
"""

from __future__ import annotations

from typing import Sequence


def percentile(samples: Sequence[float], pctl: float) -> float:
    """Tail percentile (e.g. 99.9) of a sample set; NaN when empty."""
    if len(samples) == 0:
        return float("nan")
    import numpy as np

    return float(np.percentile(np.asarray(samples, dtype=float), pctl))


def relative_gap(a: float, b: float) -> float:
    """|a-b| / max(|a|,|b|) — scale-free closeness used in fairness checks."""
    denom = max(abs(a), abs(b))
    if denom == 0:
        return 0.0
    return abs(a - b) / denom
