"""Figure 10: packet-level validation of the 2-QoS theoretical model.

Replays the Figure-7 arrival pattern through the *packet* WFQ
implementation with congestion control disabled and effectively
unbounded buffers (the paper's validation setup), then compares
worst-case per-class delay against the closed-form Equations 1/8.

The simulator should track theory closely, including the priority
inversion point; QoS_l's measured delay sits slightly above the fluid
value because packets are served whole (the same artifact the paper
reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.delay_bounds import TrafficModel, delay_h, delay_l
from repro.runner.point import Point, Row
from repro.net.link import Port
from repro.net.node import Node
from repro.net.packet import HEADER_BYTES, MTU_BYTES, Packet
from repro.net.queues import WfqScheduler
from repro.sim.engine import Simulator, ns_from_us


class _DelaySink(Node):
    """Records per-class worst delay from arrival stamp to delivery."""

    def __init__(self, sim: Simulator, num_classes: int) -> None:
        super().__init__(sim, "sink")
        self.worst_ns = [0] * num_classes

    def receive(self, pkt: Packet) -> None:
        delay = self.sim.now - pkt.sent_time_ns
        if delay > self.worst_ns[pkt.qos]:
            self.worst_ns[pkt.qos] = delay


@dataclass
class Fig10Result:
    model: TrafficModel
    rows: List[Tuple[float, float, float, float, float]]
    # (share, sim_delay_h, sim_delay_l, theory_delay_h, theory_delay_l)

    def max_abs_error_h(self) -> float:
        return max(abs(s - t) for _, s, __, t, ___ in self.rows)

    def table(self) -> str:
        lines = [
            f"Fig 10 — packet sim vs theory (phi={self.model.phi:g}, "
            f"mu={self.model.mu:g}, rho={self.model.rho:g})",
            f"{'share':>6} {'sim_h':>8} {'thy_h':>8} {'sim_l':>8} {'thy_l':>8}",
        ]
        for x, sh, sl, th, tl in self.rows:
            lines.append(f"{x:6.2f} {sh:8.4f} {th:8.4f} {sl:8.4f} {tl:8.4f}")
        return "\n".join(lines)


def _run_single_share(
    x: float,
    model: TrafficModel,
    period_ns: int,
    periods: int,
    line_rate_bps: float,
) -> Tuple[float, float]:
    """Worst normalized delay (h, l) for one QoS-mix point."""
    sim = Simulator()
    weights = (model.phi, 1.0)
    scheduler = WfqScheduler(weights, buffer_bytes=1 << 30)
    port = Port(sim, scheduler, rate_bps=line_rate_bps, prop_delay_ns=0, name="dut")
    sink = _DelaySink(sim, 2)
    port.connect(sink)

    pkt_bytes = MTU_BYTES + HEADER_BYTES
    on_ns = int(period_ns * model.mu / model.rho)
    burst_bps = model.rho * line_rate_bps
    shares = (x, 1.0 - x)
    for period in range(periods):
        base = period * period_ns
        for qos, share in enumerate(shares):
            if share <= 0:
                continue
            count = int(burst_bps * share * on_ns / 1e9 / (pkt_bytes * 8))
            # The whole arrival schedule is known before the clock
            # starts: one pre-sorted run per (period, class) block keeps
            # it out of the heap (DESIGN.md §11).  The clock reads 0
            # here, so the absolute arrival times are the delays.
            args = (port, qos, pkt_bytes, sim)
            sim.post_run(
                _inject, [(base + int(i * on_ns / count), args) for i in range(count)]
            )
    sim.run()
    # Serialization of a single packet is the fluid model's granularity
    # floor; subtract it so a delay-free class reports ~0.
    floor_ns = port.serialization_ns(pkt_bytes)
    dh = max(0, sink.worst_ns[0] - floor_ns) / period_ns
    dl = max(0, sink.worst_ns[1] - floor_ns) / period_ns
    return dh, dl


def _inject(port: Port, qos: int, size: int, sim: Simulator) -> None:
    pkt = Packet(src=0, dst=1, size_bytes=size, qos=qos)
    pkt.sent_time_ns = sim.now
    port.send(pkt)


def run(
    mu: float = 0.8,
    rho: float = 1.2,
    phi: float = 4.0,
    shares: Optional[Sequence[float]] = None,
    period_us: float = 500.0,
    periods: int = 2,
    line_rate_bps: float = 100e9,
) -> Fig10Result:
    model = TrafficModel(mu=mu, rho=rho, phi=phi)
    if shares is None:
        shares = [0.05 * i for i in range(1, 20)]  # 5% .. 95%
    period_ns = ns_from_us(period_us)
    rows = []
    for x in shares:
        sim_h, sim_l = _run_single_share(x, model, period_ns, periods, line_rate_bps)
        rows.append((x, sim_h, sim_l, delay_h(x, model), delay_l(x, model)))
    return Fig10Result(model=model, rows=rows)


# ----------------------------------------------------------------------
# Sweep interface (repro.runner)
# ----------------------------------------------------------------------
PROFILES = {
    "paper": {"shares": [round(0.05 * i, 2) for i in range(1, 20)]},
    "fast": {"shares": [0.1, 0.4, 0.7, 0.85]},
}


def sweep(profile: str = "paper") -> List[Point]:
    return [
        Point(
            "fig10",
            {
                "mu": 0.8,
                "rho": 1.2,
                "phi": 4.0,
                "share": x,
                "period_us": 500.0,
                "periods": 2,
            },
        )
        for x in PROFILES[profile]["shares"]
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    model = TrafficModel(mu=p["mu"], rho=p["rho"], phi=p["phi"])
    sim_h, sim_l = _run_single_share(
        p["share"], model, ns_from_us(p["period_us"]), p["periods"], 100e9
    )
    return {
        "share": p["share"],
        "sim_h": sim_h,
        "sim_l": sim_l,
        "theory_h": delay_h(p["share"], model),
        "theory_l": delay_l(p["share"], model),
    }


def check(rows: Sequence[Row], profile: str) -> List[str]:
    """Validation shape: packet sim tracks theory, QoS_l only ever
    slightly above it (the packetization artifact)."""
    failures: List[str] = []
    err_h = max(abs(r["sim_h"] - r["theory_h"]) for r in rows)
    if err_h > 0.01:
        failures.append(
            f"fig10: QoS_h sim-vs-theory error {err_h:.4f} of the period "
            "(expected < 0.01)"
        )
    for r in rows:
        if r["sim_l"] < r["theory_l"] - 0.005:
            failures.append(
                f"fig10: QoS_l sim delay {r['sim_l']:.4f} fell below "
                f"theory {r['theory_l']:.4f} at share {r['share']:g}"
            )
        if r["sim_l"] > r["theory_l"] + 0.02:
            failures.append(
                f"fig10: QoS_l packetization artifact too large at "
                f"share {r['share']:g}"
            )
    return failures
