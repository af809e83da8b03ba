"""RPC layer: RPC objects, size distributions, workloads, and the stack."""

from repro.rpc.message import Rpc
from repro.rpc.sizes import (
    ChoiceSize,
    FixedSize,
    LogNormalSize,
    SizeDistribution,
    production_mixture,
    production_size_dist,
)
from repro.rpc.stack import MetricsCollector, RpcStack
from repro.rpc.workload import (
    BurstPattern,
    OpenLoopSource,
    PriorityMix,
    steady_pattern,
)

__all__ = [
    "BurstPattern",
    "ChoiceSize",
    "FixedSize",
    "LogNormalSize",
    "MetricsCollector",
    "OpenLoopSource",
    "PriorityMix",
    "Rpc",
    "RpcStack",
    "SizeDistribution",
    "production_mixture",
    "production_size_dist",
    "steady_pattern",
]
