"""Determinism digests over simulation results.

The hot-path optimization work (and any future kernel change) must not
alter simulation *results*, only how fast they are produced.  A digest
compresses one run's outcome — completed-RPC count, total RNL, and the
per-QoS byte mix — into a small, stable structure that can be compared
across runs and across code versions: same seed, same digest.

A digest reads the :class:`~repro.rpc.stack.MetricsCollector`'s retained
records, the same ones every figure statistic is computed from.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.stack import MetricsCollector


def completed_rpc_digest(metrics: "MetricsCollector") -> Dict[str, Any]:
    """Summarize one run's completed-RPC outcome.

    Returns a JSON-serializable dict with:

    * ``issued`` / ``completed`` — RPC counts;
    * ``rnl_sum_ns`` — the sum of every completed RPC's RNL (a single
      integer that is exquisitely sensitive to any ordering change);
    * ``completed_by_qos`` — completions per QoS the RPC ran at;
    * ``run_bytes_by_qos`` — the per-QoS byte mix of issued traffic.
    """
    rnl_sum = 0
    by_qos: Dict[Any, int] = {}
    for rpc in metrics.completed:
        rnl_sum += rpc.rnl_ns
        by_qos[rpc.qos] = by_qos.get(rpc.qos, 0) + 1
    return {
        "issued": metrics.issued_count,
        "completed": len(metrics.completed),
        "rnl_sum_ns": rnl_sum,
        "completed_by_qos": {str(q): n for q, n in sorted(by_qos.items())},
        "run_bytes_by_qos": {
            str(q): b for q, b in sorted(metrics.run_bytes_by_qos.items())
        },
    }


def digest_hex(digest: Mapping[str, Any]) -> str:
    """Stable hex fingerprint of a digest dict (sorted-key JSON, sha256)."""
    blob = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
