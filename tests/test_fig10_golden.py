"""Literal golden for Figure 10's fast-profile rows.

fig10 is the packet-level validation of the closed-form WFQ delay: every
arrival time is known before the clock starts, so it is the figure whose
*scheduling* can be reorganised without touching the model.  The four
fast-profile rows are pinned here as values (and as one digest of the
whole list): a change to how the injector queues its arrivals must
reproduce them exactly — same firing order, same ``(time, seq)`` ties.
"""

from __future__ import annotations

from repro.experiments import fig10
from repro.stats.digest import digest_hex

_ROWS = [
    {"share": 0.1, "sim_h": 0.000662, "sim_l": 0.133152,
     "theory_h": 0.0, "theory_l": 0.1333333333333333},
    {"share": 0.4, "sim_h": 0.000664, "sim_l": 0.185188,
     "theory_h": 0.0, "theory_l": 0.18518518518518529},
    {"share": 0.7, "sim_h": 0.033682, "sim_l": 0.311078,
     "theory_h": 0.033333333333333305, "theory_l": 0.31111111111111117},
    {"share": 0.85, "sim_h": 0.133188, "sim_l": 0.00333,
     "theory_h": 0.1333333333333333, "theory_l": 0.0},
]
_DIGEST = "5c94ee63511add872cacd6484aca0d0922b6b8518b78a848b39253da64cca520"


def fast_rows():
    return [fig10.run_point(point, point.seed) for point in fig10.sweep("fast")]


def test_fig10_fast_rows_are_the_pinned_values():
    rows = fast_rows()
    assert rows == _ROWS
    assert digest_hex({"rows": rows}) == _DIGEST
