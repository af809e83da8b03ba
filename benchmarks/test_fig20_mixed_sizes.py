"""Figure 20 bench: size-normalized SLOs across a 32/64 KB size mix.

Paper: with per-MTU SLOs and size-proportional decrease, both size
populations meet the same normalized SLO under Aequitas, while the
baseline violates it for both.
"""

from repro.experiments import fig20
from repro.runner.point import Point


def test_fig20_mixed_sizes(run_once):
    spec = {"num_hosts": 8, "duration_ms": 25.0, "warmup_ms": 12.0}
    points = [
        Point("fig20", {"scheme": scheme, **spec}) for scheme in ("wfq", "aequitas")
    ]
    rows = run_once(lambda: [fig20.run_point(p, 20) for p in points])
    print()
    print(fig20.table(rows))
    tails = {r["scheme"]: r["tails_us"] for r in rows}
    slo_h_us = 15.0
    for size_label in ("32KB", "64KB"):
        with_aeq = tails["aequitas"][size_label]
        without = tails["wfq"][size_label]
        # Aequitas meets the normalized QoS_h SLO for both sizes.
        assert with_aeq["0"] < 1.5 * slo_h_us, size_label
        # And improves (or at least never worsens) on the baseline.
        assert with_aeq["0"] <= without["0"] * 1.1, size_label
    # The two size classes see comparable normalized QoS_h tails
    # (within 2x), i.e., no size is structurally disadvantaged.
    t32 = tails["aequitas"]["32KB"]["0"]
    t64 = tails["aequitas"]["64KB"]["0"]
    assert max(t32, t64) / max(min(t32, t64), 1e-9) < 2.0
