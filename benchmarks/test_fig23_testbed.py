"""Figure 23 bench: the (simulated) testbed deployment.

Paper (20 machines, weights 8:4:1, input mix 50/35/15, SLOs set for a
20/30/50 target): normalized tails drop from 8.1/5.0/1.3 without
Aequitas to 1.0/0.8/0.9 with it, and the admitted mix moves from the
input toward the target.
"""

from repro.experiments import fig23
from repro.runner.point import Point


def test_fig23_testbed(run_once):
    spec = {"num_hosts": 8, "duration_ms": 25.0, "warmup_ms": 12.0}
    target_mix = [0.2, 0.3, 0.5]
    roles = (
        ("reference", "wfq", target_mix),
        ("without", "wfq", [0.5, 0.35, 0.15]),
        ("with", "aequitas", [0.5, 0.35, 0.15]),
    )
    points = [
        Point("fig23", {"role": role, "scheme": scheme, "mix": mix, **spec})
        for role, scheme, mix in roles
    ]
    rows = run_once(lambda: [fig23.run_point(p, 23) for p in points])
    print()
    print(fig23.table(rows))
    by = {r["role"]: r for r in rows}
    with_norm = fig23.normalized_tails(by, "with")
    without_norm = fig23.normalized_tails(by, "without")
    for qos in ("0", "1"):
        # Aequitas improves every SLO class relative to the baseline...
        assert with_norm[qos] < without_norm[qos]
    # ...and lands within a small factor of the reference (paper ~1.0).
    assert with_norm["0"] < 5.0
    # The admitted mix moves from the input toward the target mix.
    input_h, target_h = 0.5, target_mix[0]
    with_h, without_h = by["with"]["admitted_mix"][0], by["without"]["admitted_mix"][0]
    assert with_h < without_h
    assert abs(with_h - target_h) < abs(input_h - target_h)
