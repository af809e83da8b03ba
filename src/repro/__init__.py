"""Aequitas (SIGCOMM 2022) reproduction.

This init re-exports the admission core's seven names and nothing
else; the subpackages are the real API, and each name is imported from
the module that defines it (``repro.stats.summary.percentile``,
``repro.experiments.cluster.build_cluster``).  The package inits of
``net``, ``baselines``, ``analysis``, ``experiments`` and ``stats``
import nothing, and ``live``/``obs``/``runner`` re-export only their
light core, so an entry point loads what it runs — DESIGN.md, "Cold
start":

* :mod:`repro.core` — QoS model, SLOs, Algorithm-1 admission control,
  quota server, downgrade-feedback policy;
* :mod:`repro.sim` / :mod:`repro.net` / :mod:`repro.transport` /
  :mod:`repro.rpc` — the simulated datacenter substrate;
* :mod:`repro.baselines` — pFabric, QJump, D3, PDQ, Homa, SPQ;
* :mod:`repro.analysis` — network-calculus delay bounds and the
  admissible region;
* :mod:`repro.experiments` — one driver per paper figure plus the
  shared cluster harness;
* :mod:`repro.stats` — percentiles, samplers, convergence detection.
"""

from repro.core import (
    AdmissionController,
    AdmissionParams,
    Priority,
    QoS,
    QoSConfig,
    SLO,
    SLOMap,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionParams",
    "Priority",
    "QoS",
    "QoSConfig",
    "SLO",
    "SLOMap",
    "__version__",
]
