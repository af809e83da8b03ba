"""Figure 16 bench: admitted traffic is inversely proportional to rho.

Paper: sweeping burst load 1.4 -> 2.2 shrinks the admitted QoS_h share
from ~33% to ~18%, fitting C/rho — the Section-5.2 guarantee
X_i <= g_i * mu / rho made visible.
"""

from repro.experiments import fig16
from repro.runner.point import Point


def test_fig16_burstiness(run_once):
    spec = {"num_hosts": 8, "duration_ms": 25.0, "warmup_ms": 12.0}
    points = [Point("fig16", {"rho": rho, **spec}) for rho in (1.4, 1.8, 2.2)]
    rows = run_once(lambda: [fig16.run_point(p, 16) for p in points])
    print()
    print(fig16.table(rows))
    shares = [r["admitted_qos_h_share"] for r in rows]
    # Monotone decrease with burstiness.
    assert shares[0] > shares[-1]
    # The C/rho fit holds to ~25% mean relative error.
    assert fig16.fit_error(rows) < 0.25
