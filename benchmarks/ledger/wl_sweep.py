"""The figure-sweep workload: the command users type.

One unit is three ``run_experiment(fig, "fast", workers=1)`` calls on a
cold cache in a fresh results directory — fig08 (11 closed-form
points), fig09 (18 fluid points), fig10 (4 packet-sim points) — sized so
that what a sweep *adds* over the simulator (seeds, cache, store, shape
checks, delay bounds, fluid model) is a visible share.  The sim-
dominated sweeps (fig11-fig22) would only re-measure the ``sim_*``
workloads times a horizon.

Slices are the intervals between the runner's ``log=`` lines (one per
point) plus each call's head and tail.  Per-point seeds are hash-
derived by ``repro.runner`` by design, so ``--seed`` only names the
scratch directory here.
"""

from __future__ import annotations

import os.path
import shutil
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from benchmarks.ledger.spans import SpanRecorder, maybe_span
from benchmarks.ledger.workloads import Unit
from repro.runner import run_experiment

if TYPE_CHECKING:
    from pathlib import Path

    from benchmarks.ledger.layers import LayerProfile

#: figure -> points in its fast profile (checked against every report).
_FIGURES = {"fig08": 11, "fig09": 18, "fig10": 4}


class SweepWorkload:
    name = "sweep_fast_trio"
    aligned = True
    traced_units = 10
    sanitize_child = False
    observed_metric = None
    work = float(sum(_FIGURES.values()))

    def first_op(self, seed: int, scratch: str) -> None:
        run_experiment(
            "fig08", "fast", workers=1, results_dir=os.path.join(scratch, "setup")
        )

    def run_unit(
        self,
        seed: int,
        scratch: Path,
        spans: Optional[SpanRecorder] = None,
        profile: Optional["LayerProfile"] = None,
        unit_id: int = 0,
        observed: bool = False,
    ) -> Unit:
        clock = time.perf_counter
        results_dir = str(scratch / f"sweep-{seed}-{unit_id}")
        marks: List[float] = []

        def on_log(_message: str) -> None:
            marks.append(clock())

        slices: List[float] = []
        reports = []
        if profile is not None:
            profile.enable()
        try:
            with maybe_span(spans, "unit", unit_id):
                for figure in _FIGURES:
                    del marks[:]
                    start = clock()
                    with maybe_span(spans, "run_experiment"):
                        report = run_experiment(
                            figure, "fast", workers=1, results_dir=results_dir, log=on_log
                        )
                        end = clock()
                        # marks: the header line, then one per point.
                        if spans is not None:
                            for a, b in zip(marks, marks[1:]):
                                spans.add("point", a, b)
                    reports.append(report)
                    edges = [start, *marks, end]
                    slices.extend(b - a for a, b in zip(edges, edges[1:]))
        finally:
            if profile is not None:
                profile.disable()

        # Untimed: the same three calls again, now on the warm cache.
        start = clock()
        warm = [
            run_experiment(figure, "fast", workers=1, results_dir=results_dir)
            for figure in _FIGURES
        ]
        cached_rerun_s = clock() - start
        shutil.rmtree(results_dir)

        exact: Dict[str, Any] = {
            "digest_hex": {r.experiment: r.digest_hex for r in reports},
            "failures": [f for r in reports + warm for f in r.failures],
            "computed": {r.experiment: r.computed for r in reports},
            "warm_computed": sum(r.computed for r in warm),
            "warm_digest_hex": {r.experiment: r.digest_hex for r in warm},
        }
        return Unit(slices, exact, {"cached_rerun_s": cached_rerun_s})

    def check(self, units: List[Unit]) -> Tuple[int, int, List[str]]:
        reference = units[0].exact["digest_hex"]
        problems: List[str] = []
        failed = 0
        for index, unit in enumerate(units):
            facts = unit.exact
            bad = list(facts["failures"])
            if facts["computed"] != _FIGURES:
                bad.append(f"cold call computed {facts['computed']}, not every point")
            if facts["digest_hex"] != reference:
                bad.append("run digest differs between repetitions")
            if facts["warm_computed"] != 0:
                bad.append(f"warm rerun recomputed {facts['warm_computed']} points")
            if facts["warm_digest_hex"] != facts["digest_hex"]:
                bad.append("warm rerun digest differs from the cold run's")
            if bad:
                # A shape failure or digest drift taints the whole unit.
                failed += int(self.work)
                problems.append(f"unit {index}: {'; '.join(bad)}")
        return len(units) * int(self.work), failed, problems

    def counters(self, units: List[Unit], spans: SpanRecorder) -> Dict[str, float]:
        from benchmarks.ledger.estimator import slice_minima

        minima = slice_minima([u.slices for u in units])
        # Per call: head (entry -> header line) and tail (last point ->
        # return) are the runner's own time; the rest is per point.
        overhead = 0.0
        offset = 0
        for points in _FIGURES.values():
            overhead += minima[offset] + minima[offset + points + 1]
            offset += points + 2
        return {
            "runner.overhead_ms_per_call": overhead / len(_FIGURES) * 1e3,
            "runner.cached_rerun_ms": min(u.measured["cached_rerun_s"] for u in units) * 1e3,
        }

    def probes(self, seed: int, scratch: Path) -> Dict[str, float]:
        return {}


def make(name: str) -> SweepWorkload:
    return SweepWorkload()
