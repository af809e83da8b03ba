"""Figure 12 bench: cluster tail RNL w/ vs w/o Aequitas.

Paper (33 nodes): w/o Aequitas 129/543 us tails vs SLOs 15/25; with it
16/26 — and QoS_l improves too (not zero-sum).  We assert the same
structure at reduced node count: SLO classes violated without
admission, tracked with it.
"""

from repro.experiments import fig12
from repro.runner.point import Point


def test_fig12_cluster_rnl(run_once):
    spec = {"num_hosts": 8, "duration_ms": 30.0, "warmup_ms": 15.0}
    points = [
        Point("fig12", {"scheme": scheme, **spec}) for scheme in ("wfq", "aequitas")
    ]
    rows = run_once(lambda: [fig12.run_point(p, 12) for p in points])
    print()
    print(fig12.table(rows))
    without, with_aequitas = (r["tail_us"] for r in rows)
    slo_us = rows[0]["slo_us"]
    # Without Aequitas: both SLO classes violated.
    assert without["0"] > slo_us["0"]
    assert without["1"] > slo_us["1"]
    # With Aequitas: tails land near the SLOs (within 1.5x at p99.9).
    assert with_aequitas["0"] < 1.5 * slo_us["0"]
    assert with_aequitas["1"] < 1.5 * slo_us["1"]
    # Not a zero-sum game: the scavenger class improves as well.
    assert with_aequitas["2"] < without["2"]
