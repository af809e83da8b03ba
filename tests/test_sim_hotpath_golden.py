"""Literal goldens for the simulator's per-RPC path.

issue -> admit -> send -> ack -> complete, pinned as values rather than
as same-seed equality: a rewrite of that path must reproduce every run
here bit for bit — the completed-RPC digest, the kernel's event count,
how much randomness each workload source and each admission substream
*consumed* (an unrolled ``choices`` or a skipped coin flip shows up
here and nowhere else), and every flow's final congestion window.

The first two cases are the performance ledger's two simulator shapes
at seed 1, rebuilt from ``repro``'s public names; the rest are one
short run per branch the path has (quota gate, custom Phase-1 mapper,
admission off, ACKs through the fabric, each baseline flow subclass).
A second table pins, for three of those runs, every aggregate the
figure drivers read off the metrics collector (downgrades, terminations,
byte mixes, SLO-met and goodput fractions, RNL tails), whole-run and
windowed, as ``float.hex()`` literals.

When a change legitimately moves simulation results (event folding,
ACK coalescing), regenerate with
``PYTHONPATH=src python tests/test_sim_hotpath_golden.py`` and commit
the new table on its own.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro.core.qos import Priority
from repro.core.quota import QuotaReservation, QuotaServer
from repro.experiments.cluster import (
    ClusterConfig,
    ClusterResult,
    attach_traffic,
    build_cluster,
)
from repro.rpc.sizes import ChoiceSize, FixedSize, production_mixture
from repro.rpc.workload import BurstPattern, OpenLoopSource, steady_pattern
from repro.sim.engine import ns_from_ms
from repro.stats.digest import completed_rpc_digest, digest_hex
from repro.stats.summary import percentile

_MIX = {Priority.PC: 0.6, Priority.NC: 0.2, Priority.BE: 0.2}


def _sha(parts: List[Any]) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _run(
    setup: Optional[Callable[[ClusterResult], None]] = None,
    incast: bool = False,
    size_dist: Any = None,
    pattern: Optional[BurstPattern] = None,
    **cfg: Any,
) -> Tuple[ClusterResult, List[OpenLoopSource]]:
    """Build one cluster and run it to its horizon."""
    sources: List[OpenLoopSource] = []
    size_dist = size_dist if size_dist is not None else FixedSize(32 * 1024)
    pattern = pattern if pattern is not None else BurstPattern()

    def traffic(sim: Any, stacks: List[Any], conf: ClusterConfig) -> None:
        hosts = [s.host.host_id for s in stacks]
        for stack in stacks[1:] if incast else stacks:
            me = stack.host.host_id
            sources.append(
                OpenLoopSource(
                    sim,
                    stack,
                    [0] if incast else [h for h in hosts if h != me],
                    _MIX,
                    size_dist,
                    pattern,
                    line_rate_bps=conf.line_rate_bps,
                    rng=random.Random(conf.seed * 7919 + me),
                    stop_ns=ns_from_ms(conf.duration_ms),
                )
            )

    cfg.setdefault("warmup_ms", cfg["duration_ms"] / 10)
    cluster = build_cluster(ClusterConfig(traffic_fn=traffic, **cfg))
    if setup is not None:
        setup(cluster)
    attach_traffic(cluster)
    cluster.sim.run(until=ns_from_ms(cfg["duration_ms"]))
    return cluster, sources


def _observe(**case: Any) -> Dict[str, Any]:
    """Run one case and read off the pins."""
    cluster, sources = _run(**case)
    digest = completed_rpc_digest(cluster.metrics)
    ports = list(cluster.net.host_ports.values()) + list(
        cluster.net.switch_ports.values()
    )
    flows = [
        (stack.host.host_id, flow)
        for stack in cluster.stacks
        # DeadlineEndpoint keeps its per-message flows only by id.
        for flow in (stack.endpoint.flows or stack.endpoint._flows_by_id).values()
    ]
    return {
        "digest_hex": digest_hex(digest),
        "events": cluster.sim.events_processed,
        "issued": digest["issued"],
        "completed": digest["completed"],
        "downgrades": cluster.metrics.downgrades,
        "terminated": cluster.metrics.terminated,
        "packets_sent": sum(p.packets_sent for p in ports),
        "retransmits": sum(f.retransmitted_packets for _, f in flows),
        "source_rng": _sha([s.rng.getstate() for s in sources]),
        "admit_rng": _sha(
            [
                (stack.host.host_id, dst, ctrl._rng.getstate())
                for stack in cluster.stacks
                for dst, ctrl in sorted(stack.registry.controllers().items())
            ]
        ),
        "cwnd": _sha([(h, f.dst, f.qos, f.cc.cwnd) for h, f in flows]),
    }


# -- branch set-ups ------------------------------------------------------
def _with_quota(cluster: ClusterResult) -> None:
    sim = cluster.sim
    server = QuotaServer(lambda: sim.now, {0: 60e9, 1: 30e9})
    server.reserve(QuotaReservation("even", 0, 20e9))
    for stack in cluster.stacks:
        stack.quota_server = server
        stack.tenant_of = lambda rpc: "even" if rpc.src % 2 == 0 else "odd"


def _with_mapper(cluster: ClusterResult) -> None:
    # A misaligned deployment: BE rides QoS_h, PC QoS_m, NC the scavenger.
    for stack in cluster.stacks:
        stack.qos_mapper = lambda rpc: (int(rpc.priority) + 1) % 3


_LEDGER = dict(
    scheme="aequitas", num_hosts=8, seed=1, incast=True, pattern=steady_pattern(0.4)
)
_MIXED = ChoiceSize([(1024, 2.0), (32 * 1024, 1.0), (64 * 1024, 1.0)])

CASES: Dict[str, Dict[str, Any]] = {
    "sim_small_rpc_1k": dict(_LEDGER, size_dist=FixedSize(1024), duration_ms=2.0),
    "sim_incast_32k": dict(_LEDGER, size_dist=FixedSize(32 * 1024), duration_ms=24.0),
    "quota": dict(
        scheme="aequitas", num_hosts=4, seed=3, duration_ms=1.5, setup=_with_quota
    ),
    "qos_mapper": dict(
        scheme="aequitas",
        num_hosts=4,
        seed=4,
        duration_ms=1.0,
        size_dist=_MIXED,
        setup=_with_mapper,
    ),
    "wfq": dict(scheme="wfq", num_hosts=4, seed=5, duration_ms=1.0),
    # ACKs cross the fabric, and a shallow buffer under incast forces
    # drops, so the RTO / retransmit / on_loss path runs too.
    "ack_in_band": dict(
        scheme="aequitas",
        num_hosts=5,
        seed=6,
        duration_ms=1.5,
        ack_bypass=False,
        incast=True,
        buffer_bytes=96 * 1024,
    ),
    "d3": dict(
        scheme="d3",
        num_hosts=5,
        seed=7,
        duration_ms=1.5,
        incast=True,
        size_dist=production_mixture(),
    ),
    "homa": dict(
        scheme="homa",
        num_hosts=5,
        seed=8,
        duration_ms=1.0,
        incast=True,
        size_dist=_MIXED,
    ),
    "qjump": dict(scheme="qjump", num_hosts=4, seed=9, duration_ms=1.0),
    "streaming": dict(
        scheme="aequitas",
        num_hosts=4,
        seed=10,
        duration_ms=1.0,
        size_dist=_MIXED,
    ),
}

# Regenerated when the port went busy-until and the last-hop arrival
# folded into the bypassed ACK (only same-nanosecond ties reorder: issued,
# terminated, source_rng and admit_rng are those of commit b3b0c54).
GOLDEN: Dict[str, Dict[str, Any]] = {
    "sim_small_rpc_1k": {
        "digest_hex": "a4bcbed361a8ba957330c16fd6605325e1fabc861245b4e5ec64cf70e261d8ac",
        "events": 138817,
        "issued": 68315,
        "completed": 22953,
        "downgrades": 51448,
        "terminated": 0,
        "packets_sent": 46212,
        "retransmits": 0,
        "source_rng": "066da9cb18e33f622fdf04170c3e3c7619e5468707071675c2839e2774d0c09c",
        "admit_rng": "f7d23e7c25aeeb0fbb9204232fa4e7df12d81947426d02ce926cb8595296508b",
        "cwnd": "605bb5b30eab58ea03c42d04a4cf74e36538ea086ef6f3c97b7ecfaa6aec7a96"
    },
    "sim_incast_32k": {
        "digest_hex": "9ac7551d3f280ba99a09c1288972308a2dd40deee165ccf00746c0e7d2549838",
        "events": 261306,
        "issued": 25787,
        "completed": 9003,
        "downgrades": 19144,
        "terminated": 0,
        "packets_sent": 144198,
        "retransmits": 6,
        "source_rng": "880cebc4bd5cf20f793b52a3474d354bda03c7a69eafb9c89d6a89d3c480d821",
        "admit_rng": "25b9f66613a3df68cd3ae0d9f01ad45dc9eb00a31cb18c535709006a8fc958c2",
        "cwnd": "041810b99369541df18eef68df352cebd62c1a3f98e872311016d3805fd6c0a7"
    },
    "quota": {
        "digest_hex": "7d95410bf847ba099b2156d66aa49140bcc5512871c6f1186e2ba5d8863da0de",
        "events": 57393,
        "issued": 1819,
        "completed": 1809,
        "downgrades": 744,
        "terminated": 0,
        "packets_sent": 29029,
        "retransmits": 0,
        "source_rng": "7397077df0e3bcf3966929bb45746e48f84bbbfdcfcfc70c1fbec86dbdb00047",
        "admit_rng": "b73678b0e6f386167e72590403a6d3a900732c06d189d2a60ed4b3f56c9aec27",
        "cwnd": "b8dd59b49b14719933c172811b70224e3ddfbdb936c3e50f8d346325033d1240"
    },
    "qos_mapper": {
        "digest_hex": "e5c3cb8a5370df0894899a3559887a1157ea5caee7dd2dffebee2316b34524c0",
        "events": 43152,
        "issued": 1682,
        "completed": 1666,
        "downgrades": 60,
        "terminated": 0,
        "packets_sent": 21497,
        "retransmits": 0,
        "source_rng": "e6e79fcd9424fdfb9c23538e73e2cfa02892af11d5d53cfbf527ef9b66f3cc8c",
        "admit_rng": "235b83ab117d9d6da00afe2832ea2b785dbd06e5788218fcd30aa4d24ad0f9a3",
        "cwnd": "8a568479e846c0168d20df35f2c8d34277fef75c91601bbcfa9cbf936d696426"
    },
    "wfq": {
        "digest_hex": "96a1ce5feda4c2fae27c01e08fa358aa16f812600522dbd0a29915a91279b4ef",
        "events": 39132,
        "issued": 1255,
        "completed": 1237,
        "downgrades": 0,
        "terminated": 0,
        "packets_sent": 19869,
        "retransmits": 0,
        "source_rng": "a23f57d96d2ab81b115f62b65aee41535186952632ed2d7ea09fc57d546692fd",
        "admit_rng": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "cwnd": "fbc83e612f62c5cd3da548915f3bb5f52d68ab85c1096df5648a5334e7541bc1"
    },
    "ack_in_band": {
        "digest_hex": "8be9d6d6766f3698a00234c0ef474ac8aaa4133c28f277faa5521a0213d48c1f",
        "events": 26799,
        "issued": 1806,
        "completed": 529,
        "downgrades": 597,
        "terminated": 0,
        "packets_sent": 18528,
        "retransmits": 488,
        "source_rng": "599f23273d1bd9c6a7b84fd3ab91be32076e96bbe3969e065891eedffbc564e5",
        "admit_rng": "7633f9643594b155ee881b035d6b080b2f6ebb224ca0ef8c957481fd9ac84d2d",
        "cwnd": "24490faebc0d8f2f5a1be996c6f35e61ccb6d06c955591414c4a0ff13b7b4cf1"
    },
    "d3": {
        "digest_hex": "c54fc98382e4cd80ef90152d8dc69b6eef2c1cee0f0d87200b9e724d7a6ff2d2",
        "events": 30785,
        "issued": 856,
        "completed": 449,
        "downgrades": 0,
        "terminated": 187,
        "packets_sent": 9311,
        "retransmits": 0,
        "source_rng": "4891c6895927375186b61228e3eca1eec03bd6f5c7df3e8e0752f2dac060d9af",
        "admit_rng": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "cwnd": "5277108821b086d93cd67baf42b48f8a81f7e0e3477a670fe247e72a24c571ad"
    },
    "homa": {
        "digest_hex": "72e03f0bf20689be4bac4cab52155737a037f8bcd5141d56ebe1d720b8be61bc",
        "events": 37701,
        "issued": 1665,
        "completed": 631,
        "downgrades": 0,
        "terminated": 0,
        "packets_sent": 16767,
        "retransmits": 6927,
        "source_rng": "7986bc3e23a7f7292497b5d2358677f26d7528f78404482fbbb20e58b455373b",
        "admit_rng": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "cwnd": "b097bcd6d497d6aef7639d5110e30f7f4d53a589d6e1c2b89d757f7699ef4837"
    },
    "qjump": {
        "digest_hex": "f2a6835e6c93e9e52d5b15c83cb9ef223e768714bfba7f7a7cf37582f6e3b0aa",
        "events": 63303,
        "issued": 1236,
        "completed": 1191,
        "downgrades": 0,
        "terminated": 0,
        "packets_sent": 19249,
        "retransmits": 0,
        "source_rng": "8d5ed17027004f7093e155373380346ab0e5711b1757f04bb75e52e6f645c750",
        "admit_rng": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "cwnd": "ef76558659911a8d193a73ef25df28133d9c6e576671d516ddad587012b2701f"
    },
    "streaming": {
        "digest_hex": "17a2f5cde1e6462770077c0f323bb2fc5d8f23230bb773622156e89f448faf6a",
        "events": 42792,
        "issued": 1708,
        "completed": 1662,
        "downgrades": 82,
        "terminated": 0,
        "packets_sent": 21526,
        "retransmits": 0,
        "source_rng": "84db4e3544189e2b865ea148f4118da27bc7e1ee25c24f7c46a39e94154e3aba",
        "admit_rng": "3a5573723a4d8e42cb4723352903a5b96ec05217e66eb70aabee8eb356eadefe",
        "cwnd": "3593443a5d1dd1a21709d2ce69ad0dd7a795411054a61f6a10e5cd7450f78b63"
    }
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden(name: str) -> None:
    assert _observe(**CASES[name]) == GOLDEN[name]


# -- the collector's views -------------------------------------------------
def _hexes(by_qos: Dict[int, float]) -> Dict[int, str]:
    return {qos: value.hex() for qos, value in sorted(by_qos.items())}


def _views(cluster: ClusterResult) -> Dict[str, Any]:
    """Every aggregate the figure drivers read off the collector, whole-run
    and over the windows ``ClusterResult`` uses."""
    metrics = cluster.metrics
    since = cluster.warmup_ns
    until = cluster.measure_until_ns
    levels = sorted(metrics.run_bytes_by_qos)
    return {
        "downgrades": metrics.downgrades,
        "terminated": metrics.terminated,
        "run_bytes_by_qos": dict(sorted(metrics.run_bytes_by_qos.items())),
        "admitted_mix": _hexes(metrics.admitted_mix()),
        "admitted_mix_since": _hexes(metrics.admitted_mix(since_ns=since)),
        "offered_mix": _hexes(metrics.offered_mix()),
        "offered_mix_since": _hexes(metrics.offered_mix(since_ns=since)),
        "slo_met_fraction_until": {
            qos: metrics.slo_met_fraction(qos, until_ns=until).hex()
            for qos in levels
            if cluster.slo_map.has_slo(qos)
        },
        "goodput_fraction": metrics.goodput_fraction().hex(),
        "goodput_fraction_window": metrics.goodput_fraction(since, until).hex(),
        "rnl_norm_p99_since": {
            qos: percentile(metrics.normalized_rnl_ns(qos, since_ns=since), 99.0).hex()
            for qos in levels
        },
        "rnl_abs_p99_since": {
            qos: percentile(metrics.absolute_rnl_ns(qos, since_ns=since), 99.0).hex()
            for qos in levels
        },
    }


# Termination (d3), requested != run QoS (qos_mapper), the ledger shape.
VIEW_CASES = ("d3", "qos_mapper", "sim_small_rpc_1k")

VIEWS: Dict[str, Dict[str, Any]] = {
    "d3": {
        "downgrades": 0,
        "terminated": 187,
        "run_bytes_by_qos": {0: 10216076, 1: 13526235, 2: 35766758},
        "admitted_mix": {
            0: "0x1.5f95e0fb35b57p-3",
            1: "0x1.d1811bc176a76p-3",
            2: "0x1.33ba40d0d4e8dp-1",
        },
        "admitted_mix_since": {
            0: "0x1.775a90ca7d140p-3",
            1: "0x1.e2c88876b1badp-3",
            2: "0x1.297739afb44c5p-1",
        },
        "offered_mix": {
            0: "0x1.5f95e0fb35b57p-3",
            1: "0x1.d1811bc176a76p-3",
            2: "0x1.33ba40d0d4e8dp-1",
        },
        "offered_mix_since": {
            0: "0x1.775a90ca7d140p-3",
            1: "0x1.e2c88876b1badp-3",
            2: "0x1.297739afb44c5p-1",
        },
        "slo_met_fraction_until": {
            0: "0x1.629de43d77be7p-5",
            1: "0x1.11709ec4924e4p-4",
        },
        "goodput_fraction": "0x1.631de5411cf88p-4",
        "goodput_fraction_window": "0x1.3731778ab107cp-4",
        "rnl_norm_p99_since": {
            0: "0x1.26d6851eb851dp+16",
            1: "0x1.26f1451eb851fp+16",
            2: "0x1.4f764484cf485p+16",
        },
        "rnl_abs_p99_since": {
            0: "0x1.e499147ae147bp+17",
            1: "0x1.207ea47ae147bp+18",
            2: "0x1.f6f89428f5c29p+19",
        },
    },
    "qos_mapper": {
        "downgrades": 60,
        "terminated": 0,
        "run_bytes_by_qos": {0: 7932928, 1: 23688192, 2: 10288128},
        "admitted_mix": {
            0: "0x1.83a98e2bb9049p-3",
            1: "0x1.216549b0cc770p-1",
            2: "0x1.f6c14b11151f9p-3",
        },
        "admitted_mix_since": {
            0: "0x1.8a30140770af5p-3",
            1: "0x1.1e84775a9e686p-1",
            2: "0x1.fbbe0e8e15af2p-3",
        },
        "offered_mix": {
            0: "0x1.855d1b3402ba3p-3",
            1: "0x1.36e685f206b7dp-1",
            2: "0x1.9f08cd03e266bp-3",
        },
        "offered_mix_since": {
            0: "0x1.8c1c8b53931d0p-3",
            1: "0x1.36d517792bed4p-1",
            2: "0x1.988f16c7bd2e1p-3",
        },
        "slo_met_fraction_until": {
            0: "0x1.fd1c86519a2d8p-1",
            1: "0x1.da67abfcdd7ebp-1",
        },
        "goodput_fraction": "0x1.f924fc6da9d17p-1",
        "goodput_fraction_window": "0x1.fd7d828782737p-1",
        "rnl_norm_p99_since": {
            0: "0x1.e50fd70a3d716p+13",
            1: "0x1.ca1e7ae147ae1p+15",
            2: "0x1.4f8c91eb851ecp+17",
        },
        "rnl_abs_p99_since": {
            0: "0x1.b5e770a3d70a7p+14",
            1: "0x1.26f7051eb851fp+16",
            2: "0x1.729d99999999ap+17",
        },
    },
    "sim_small_rpc_1k": {
        "downgrades": 51448,
        "terminated": 0,
        "run_bytes_by_qos": {0: 1896448, 1: 1178624, 2: 66879488},
        "admitted_mix": {
            0: "0x1.bc2a5fffe14d4p-6",
            1: "0x1.140b682c28a2ep-6",
            2: "0x1.e97e51be9fb08p-1",
        },
        "admitted_mix_since": {
            0: "0x1.8f36bace9e3aep-8",
            1: "0x1.2c3571dadd639p-9",
            2: "0x1.fbb55d1887e62p-1",
        },
        "offered_mix": {
            0: "0x1.3234054a8f9b1p-1",
            1: "0x1.978fbabfc071fp-3",
            2: "0x1.9fa030160121bp-3",
        },
        "offered_mix_since": {
            0: "0x1.326e0aa76db8bp-1",
            1: "0x1.9633351dc0ffcp-3",
            2: "0x1.a014a044881d8p-3",
        },
        "slo_met_fraction_until": {
            0: "0x1.a0e1cfa5cf259p-7",
            1: "0x1.669e10e4d1c04p-6",
        },
        "goodput_fraction": "0x1.580d292276df9p-2",
        "goodput_fraction_window": "0x1.2db0a917d09f6p-2",
        "rnl_norm_p99_since": {
            0: "0x1.161dc28f5c27cp+12",
            1: "0x1.18bd66666665ep+15",
            2: "0x1.45d85947ae148p+20",
        },
        "rnl_abs_p99_since": {
            0: "0x1.161dc28f5c27cp+12",
            1: "0x1.18bd66666665ep+15",
            2: "0x1.45d85947ae148p+20",
        },
    },
}


@pytest.mark.parametrize("name", VIEW_CASES)
def test_collector_views_match_golden(name: str) -> None:
    cluster, _sources = _run(**CASES[name])
    assert _views(cluster) == VIEWS[name]


if __name__ == "__main__":
    import json
    import pprint

    observed = {name: _observe(**case) for name, case in CASES.items()}
    print("GOLDEN: Dict[str, Dict[str, Any]] =", json.dumps(observed, indent=4))
    views = {name: _views(_run(**CASES[name])[0]) for name in VIEW_CASES}
    print("VIEWS: Dict[str, Dict[str, Any]] =", pprint.pformat(views, width=88))
