"""One run of one workload: the untraced pass and the traced pass.

Both passes repeat the workload's identical unit until ``seconds`` is
spent (at least ``MIN_REPS`` times), ``gc.collect()`` untimed between
repetitions and the collector left on inside, with the set-up children
spread evenly through the window — bunched at the end they would share
one disturbed stretch of the host.  Everything runs in this process, on
one thread; helpers are short-lived children that run alone.

The untraced pass yields the end-to-end metrics.  The traced pass
spends part of the window on plain units (its own reference), then
runs the unit under the ledger's tracer, then with the observability
plane on, then the probes; it yields the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.ledger import estimator
from benchmarks.ledger.catalog import LAYERS
from benchmarks.ledger.estimator import MIN_REPS
from benchmarks.ledger.schema import result_line
from benchmarks.ledger.spans import SpanRecorder
from benchmarks.ledger.workloads import Unit, Workload

ROOT = Path(__file__).resolve().parents[2]
SETUP_CHILDREN = 12
#: The traced pass only needs the children for ``host.*`` qualifiers.
TRACED_SETUP_CHILDREN = 3
#: What the traced pass sets aside, in plain-unit times per profiled /
#: observed unit, plus a flat allowance for the probes.
_PROFILED_COST = 3.5
_OBSERVED_COST = 2.5
_PROBES_S = 4.0
_CHILD_TIMEOUT_S = 120


def _child(mode: str, name: str, seed: int, scratch: Path, **env: str) -> Tuple[Dict[str, Any], float]:
    """Run one helper to completion; its JSON line and its wall time."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger.child", mode, name, str(seed), str(scratch)],
        cwd=ROOT,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
            **env,
        },
        capture_output=True,
        text=True,
        timeout=_CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{done.stderr}")
    out: Dict[str, Any] = json.loads(done.stdout.splitlines()[-1])
    return out, wall


class _SetupChildren:
    """Set-up children due at evenly spaced times through the window."""

    def __init__(self, name: str, seed: int, scratch: Path, count: int, window_s: float):
        self._args = (name, seed, scratch)
        start = time.perf_counter()
        self._due = [start + window_s * (k + 0.5) / count for k in range(count)]
        self.samples: List[Dict[str, float]] = []

    def run_one_if_due(self) -> None:
        if self._due and time.perf_counter() >= self._due[0]:
            self._run()

    def finish(self) -> None:
        while self._due:
            self._run()

    def _run(self) -> None:
        self._due.pop(0)
        out, wall = _child("setup", *self._args)
        self.samples.append({**out, "spawn_s": wall - out["total_s"]})

    def remaining_s(self) -> float:
        if not self._due:
            return 0.0
        each = (
            statistics.median(s["total_s"] + s["spawn_s"] for s in self.samples)
            if self.samples
            else 0.5
        )
        return each * len(self._due)

    def best(self, key: str) -> float:
        return min(s[key] for s in self.samples)

    def quiet_setup_s(self) -> float:
        """The slice estimator applied to the children: the two phases
        (imports; build + first op) are slices, each child a repetition."""
        return self.best("import_s") + min(
            s["total_s"] - s["import_s"] for s in self.samples
        )


def _matrix(workload: Workload, units: List[Unit]) -> List[List[float]]:
    if workload.aligned:
        return [u.slices for u in units]
    return estimator.pooled([t for u in units for t in u.slices])


def _mean_row_s(matrix: List[List[float]]) -> float:
    return sum(map(sum, matrix)) / len(matrix)


def _repeat(
    workload: Workload,
    seed: int,
    scratch: Path,
    budget_s: Callable[[float], float],
    children: _SetupChildren,
    after_first: Optional[Callable[[Unit], None]] = None,
) -> List[Unit]:
    """Repeat the plain unit until the budget is spent, MIN_REPS at least.

    ``budget_s`` maps the typical unit's wall time to the seconds this
    loop may spend (the traced pass leaves room for its slower units).
    """
    start = time.perf_counter()
    units: List[Unit] = []
    walls: List[float] = []
    while True:
        gc.collect()
        unit_start = time.perf_counter()
        units.append(workload.run_unit(seed, scratch, unit_id=len(units)))
        walls.append(time.perf_counter() - unit_start)
        if len(units) == 1 and after_first is not None:
            after_first(units[0])
        children.run_one_if_due()
        spent = time.perf_counter() - start
        unit_s = statistics.median(walls)
        enough = len(_matrix(workload, units)) >= MIN_REPS
        if enough and spent + unit_s + children.remaining_s() > budget_s(unit_s):
            return units


def _steal_s() -> float:
    """Seconds a runnable vCPU of this guest has waited while the
    hypervisor ran someone else, summed over vCPUs (``/proc/stat``'s
    steal column; 0 where there is none)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class _HostWatch:
    """What the host did to the run, from construction to ``info()``."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._steal = _steal_s()

    def info(
        self, workload: Workload, units: List[Unit], children: _SetupChildren
    ) -> Dict[str, float]:
        matrix = _matrix(workload, units)
        total = sum(sum(row) for row in matrix)
        return {
            "host.raw_work_per_sec": workload.work * len(matrix) / total,
            "host.quiet_share": estimator.quiet_share(matrix),
            # A minimum needs one undisturbed sample; a run the host
            # stole from throughout has none, and only this says so.
            "host.steal_share": (_steal_s() - self._steal)
            / (time.perf_counter() - self._start),
            "host.reps": float(len(matrix)),
            "host.spawn_s": children.best("spawn_s"),
            "host.import_s": children.best("import_s"),
        }


def run_untraced(
    workload: Workload, seed: int, seconds: float, scratch: Path
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The end-to-end pass: ``(result line, info)``."""
    host = _HostWatch()
    children = _SetupChildren(workload.name, seed, scratch, SETUP_CHILDREN, seconds)
    problems: List[str] = []

    def sanitize(first: Unit) -> None:
        out, _wall = _child("sanitize", workload.name, seed, scratch, REPRO_SANITIZE="1")
        if "error" in out:
            problems.append(f"sanitized unit: {out['error']}")
        elif out["exact"] != first.exact:
            problems.append("sanitized unit's digest/counters differ from the plain unit's")

    units = _repeat(
        workload,
        seed,
        scratch,
        lambda _unit_s: seconds,
        children,
        after_first=sanitize if workload.sanitize_child else None,
    )
    children.finish()

    attempted, failed, found = workload.check(units)
    problems += found
    matrix = _matrix(workload, units)
    values = {
        "setup_s": children.quiet_setup_s(),
        "work_per_sec": workload.work / estimator.quiet_time(matrix),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        **host.info(workload, units, children),
        # The one-shot figure a naive harness would have reported.
        "setup_first_child_s": children.samples[0]["total_s"],
        "exact": units[0].exact,
        "problems": problems,
    }
    return result_line(not problems, attempted, failed, values, trace=False), info


def run_traced(
    workload: Workload, seed: int, seconds: float, scratch: Path
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The per-layer pass: ``(result line, info)``; writes ``trace.json``."""
    from benchmarks.ledger.layers import LayerProfile

    host = _HostWatch()
    # Plain units: the reference everything below is read against.
    later_units = workload.traced_units * _PROFILED_COST + (
        _OBSERVED_COST if workload.observed_metric else 0.0
    )
    children = _SetupChildren(
        workload.name, seed, scratch, TRACED_SETUP_CHILDREN, seconds / 3
    )
    plain = _repeat(
        workload,
        seed,
        scratch,
        lambda unit_s: seconds - _PROBES_S - unit_s * later_units,
        children,
    )
    children.finish()
    # The slower units below run once, so their time is a plain sum and
    # is read against the plain units' plain sum, not their quiet time.
    plain_row_s = _mean_row_s(_matrix(workload, plain))

    spans = SpanRecorder()
    profile = LayerProfile()
    traced = []
    for k in range(workload.traced_units):
        gc.collect()
        traced.append(workload.run_unit(seed, scratch, spans, profile, unit_id=k))
    traced_matrix = _matrix(workload, traced)
    seconds_by_layer, calls_by_layer = profile.attribute()
    profiled_work = workload.work * len(traced_matrix)
    total = sum(seconds_by_layer.values())
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_share"] = seconds_by_layer[layer] / total
        values[f"{layer}.calls_per_work"] = calls_by_layer[layer] / profiled_work
    values["trace.slowdown"] = _mean_row_s(traced_matrix) / plain_row_s

    checked = plain + traced
    if workload.observed_metric:
        gc.collect()
        observed = workload.run_unit(seed, scratch, observed=True, unit_id=len(plain))
        values[workload.observed_metric] = (
            _mean_row_s(_matrix(workload, [observed])) / plain_row_s
        )
        checked.append(observed)

    values.update(workload.counters(plain, spans))
    values.update(workload.probes(seed, scratch))
    values.update(host.info(workload, plain, children))
    spans.write(scratch / "trace.json")

    attempted, failed, problems = workload.check(checked)
    info = {"exact": plain[0].exact, "problems": problems, "spans": len(spans.spans)}
    return result_line(not problems, attempted, failed, values, trace=True), info
