"""Figure 22 bench: Aequitas vs pFabric, QJump, D3, PDQ, Homa.

Paper: Aequitas admits the most SLO-compliant QoS_h traffic (70.3%) at
full utilization; D3/PDQ drop to ~52% utilization through early
termination; pFabric/Homa favor small RPCs and blow the large-RPC
tails; QJump's host throttles give good packet latency but weaker
RPC-level SLO compliance.
"""

from repro.experiments import fig22
from repro.runner.point import Point


def test_fig22_related_works(run_once):
    spec = {"num_hosts": 6, "duration_ms": 15.0, "warmup_ms": 6.0}
    points = [
        Point("fig22", {"scheme": scheme, **spec}) for scheme in fig22.COMPARED_SCHEMES
    ]
    rows = run_once(lambda: [fig22.run_point(p, 22) for p in points])
    print()
    print(fig22.table(rows))
    by = {r["scheme"]: r for r in rows}
    aeq = by["aequitas"]
    # Aequitas: full utilization, the lowest QoS_h tail of any scheme,
    # and a solid majority-admitted SLO-met fraction.  (Deviation noted
    # in EXPERIMENTS.md: with our truncated size distribution the
    # byte-weighted SLO-met metric flatters SRPT schemes, whose misses
    # concentrate in a thin sliver of bytes; the paper's 5-decade size
    # range punishes them much harder on that metric.)
    assert aeq["utilization"] > 0.95
    assert aeq["slo_met_h"] > 0.4
    for scheme in ("pfabric", "qjump", "d3", "pdq", "homa"):
        assert aeq["tails_us"]["0"] <= by[scheme]["tails_us"]["0"] + 1e-9, scheme
    # Early-terminating deadline schemes pay in utilization (paper ~52%).
    for scheme in ("d3", "pdq"):
        assert by[scheme]["utilization"] < aeq["utilization"] - 0.15, scheme
        assert by[scheme]["terminated"] > 0, scheme
    # SRPT-based schemes blow out the QoS_h tail relative to Aequitas.
    assert by["pfabric"]["tails_us"]["0"] > 2 * aeq["tails_us"]["0"]
    assert by["homa"]["tails_us"]["0"] > 2 * aeq["tails_us"]["0"]
