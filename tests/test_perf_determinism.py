"""Determinism digests.

The performance ledger asserts digest equality across repetitions of
its workloads; these tests pin down the underlying guarantee — same
seed gives bit-identical results.
"""

from repro.sim.engine import ns_from_ms
from repro.stats.digest import completed_rpc_digest, digest_hex


def _run_star(until_ms: float, seed: int):
    """The ledger's ``sim_incast_32k`` cluster (7 senders incasting one
    host, Aequitas on), run to ``until_ms`` of its 24 ms horizon."""
    from benchmarks.ledger.wl_sim import make

    cluster = make("sim_incast_32k")._build(seed, None)
    cluster.sim.run(until=ns_from_ms(until_ms))
    return completed_rpc_digest(cluster.metrics)


def test_star_admission_same_seed_same_digest():
    """Two fresh builds of the star-admission scenario with one seed
    must agree on completed count, summed RNL, and per-QoS byte mix —
    the whole digest, bit for bit."""
    first = _run_star(5.0, 7)
    second = _run_star(5.0, 7)
    assert first == second
    assert digest_hex(first) == digest_hex(second)
    assert first["completed"] > 0, "scenario must actually complete RPCs"


def test_star_admission_different_seed_different_digest():
    assert _run_star(5.0, 7) != _run_star(5.0, 8)
