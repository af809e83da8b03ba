"""What every workload is to the runner, and where each one lives.

Each workload sits in its own module whose top-level imports are the
``repro`` packages it drives and nothing ``repro`` does not import
itself, so that a set-up child pays for exactly the imports a user of
that workload would pay for (``tests/test_ledger_layers.py`` checks it);
what only the measuring parent needs is imported where it is used.  The ledger carries its own
workload builders on purpose: an edit to ``benchmarks/perf/scenarios.py``
must not move the yardstick.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Protocol, Tuple

from benchmarks.ledger.spans import SpanRecorder

if TYPE_CHECKING:  # the profiler is only imported by the traced pass
    from pathlib import Path

    from benchmarks.ledger.layers import LayerProfile

_MODULES = {
    "sim_incast_32k": "benchmarks.ledger.wl_sim",
    "sim_small_rpc_1k": "benchmarks.ledger.wl_sim",
    "sweep_fast_trio": "benchmarks.ledger.wl_sweep",
    "live_closed_8x1k": "benchmarks.ledger.wl_live",
}


@dataclass
class Unit:
    """One repetition of a workload's fixed unit of work."""

    #: Seconds per slice; slice *i* does the same work in every unit.
    slices: List[float]
    #: Digests and counts that repeat exactly for a seed; the checks
    #: compare them and ``compare`` reports any that differ.
    exact: Dict[str, Any] = field(default_factory=dict)
    #: Everything else a check or a per-layer metric reads.
    measured: Dict[str, Any] = field(default_factory=dict)


class Workload(Protocol):
    name: str
    #: Work in one row of the estimator's matrix (see ``aligned``).
    work: float
    #: True: slice *i* is bit-identical across units, so the quiet time
    #: is the sum of per-slice minima and ``work`` is a whole unit's.
    #: False: slices are only statistically identical; they share one
    #: index and ``work`` is one slice's.
    aligned: bool
    #: Units the traced pass profiles (enough work for stable shares).
    traced_units: int
    #: One extra untimed unit runs in a child under REPRO_SANITIZE=1 and
    #: must reproduce the plain unit's exact facts.
    sanitize_child: bool
    #: Per-layer metric that reads "unit with the observability plane
    #: on, over the plain unit"; None where the workload has no such mode.
    observed_metric: Optional[str]

    def first_op(self, seed: int, scratch: str) -> None:
        """Build and do the first operation (the set-up child's body);
        ``scratch`` is a directory's path as the child received it."""

    def run_unit(
        self,
        seed: int,
        scratch: Path,
        spans: Optional[SpanRecorder] = None,
        profile: Optional["LayerProfile"] = None,
        unit_id: int = 0,
        observed: bool = False,
    ) -> Unit:
        """One fresh-built repetition, timed slice by slice."""

    def check(self, units: List[Unit]) -> Tuple[int, int, List[str]]:
        """``(attempted, failed, problems)`` over a run's units."""

    def counters(self, units: List[Unit], spans: SpanRecorder) -> Dict[str, float]:
        """Per-layer metrics that come from counters, slices and spans."""

    def probes(self, seed: int, scratch: Path) -> Dict[str, float]:
        """Per-layer metrics from probes run after the traced unit."""


def load(name: str) -> Workload:
    try:
        module = importlib.import_module(_MODULES[name])
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; available: {', '.join(_MODULES)}"
        ) from None
    workload: Workload = module.make(name)
    return workload
