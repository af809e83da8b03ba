"""Fairness demo: two RPC channels with unequal QoS_h demand.

Channel A requests 40% of its line-rate RPC stream on QoS_h, Channel B
80%.  Aequitas' RPC-clocked AIMD drives them toward *equal admitted
throughput* via *different* admit probabilities; a third scenario shows
an in-quota channel (10%) keeping p_admit ~ 1.0 while the other
reclaims the slack (max-min fairness).

Run:  python examples/fairness_demo.py
"""

from repro.experiments import fig17
from repro.experiments.fig17 import FairnessResult, run_two_channels

SPARK_CHARS = " .:-=+*#%@"


def sparkline(values, width: int = 60) -> str:
    if not values:
        return ""
    step = max(1, len(values) // width)
    sampled = values[::step][:width]
    hi = max(sampled) or 1.0
    return "".join(
        SPARK_CHARS[min(int(v / hi * (len(SPARK_CHARS) - 1)), len(SPARK_CHARS) - 1)]
        for v in sampled
    )


def show(result: FairnessResult, title: str) -> None:
    print(f"\n=== {title} ===")
    print(fig17.table([result.summary()]))
    for name, tr in (("A", result.channel_a), ("B", result.channel_b)):
        values = [v for _, v in tr.p_admit]
        print(f"p_admit[{name}] |{sparkline(values)}|")
    for name, tr in (("A", result.channel_a), ("B", result.channel_b)):
        values = [v for _, v in tr.goodput_gbps]
        print(f"goodput[{name}] |{sparkline(values)}| (0..max Gbps)")


def main() -> None:
    print("3-node setup: both channels send 32 KB RPCs at line rate to one")
    print("server; QoS_h SLO 15 us/MTU at p99.")
    show(run_two_channels(share_a=0.4, share_b=0.8, duration_ms=60.0),
         "Fig 17 scenario: 40% vs 80% QoS_h demand")
    show(run_two_channels(share_a=0.1, share_b=0.8, duration_ms=60.0),
         "Fig 18 scenario: in-quota 10% vs 80%")
    print("\nNote how the in-quota channel's admit probability stays pinned")
    print("at 1.0 — being well-behaved is never punished (max-min fairness).")


if __name__ == "__main__":
    main()
