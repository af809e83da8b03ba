"""Figure 13 bench: outstanding RPCs per switch port, before/after.

Paper: with Aequitas the QoS_h+QoS_m outstanding count drops sharply
(they finish faster) while QoS_l's rises; the tail decrease of the
former outweighs the latter's increase — the Little's-law mechanism
behind the non-zero-sum latency result.
"""

from repro.experiments import fig13
from repro.runner.point import Point


def test_fig13_outstanding(run_once):
    spec = {"num_hosts": 8, "duration_ms": 30.0, "warmup_ms": 15.0, "sample_us": 100.0}
    points = [
        Point("fig13", {"scheme": scheme, **spec}) for scheme in ("wfq", "aequitas")
    ]
    rows = run_once(lambda: [fig13.run_point(p, 13) for p in points])
    print()
    print(fig13.table(rows))
    without, with_aequitas = rows
    # High/medium outstanding shrinks with admission control...
    assert with_aequitas["p99_high_medium"] < without["p99_high_medium"]
    # ...while the scavenger class absorbs the downgraded work.
    assert with_aequitas["p99_low"] >= without["p99_low"]
