"""Sweep execution: shard points over workers, cache, store, check.

The orchestration contract that makes parallelism safe:

* every point's seed comes from the point itself (:class:`Point.seed`),
  never from shared RNG state, so worker count and scheduling order
  cannot change any row;
* rows are assembled in sweep order regardless of completion order, so
  the stored document and the run digest are reproducible;
* workers are pure functions (point in, row out) — the parent alone
  touches the cache and the result store, so there are no concurrent
  writers.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.runner.cache import ResultCache, code_version
from repro.runner.point import Point
from repro.runner.registry import driver_for, validate_profile
from repro.runner.store import ResultStore
from repro.stats.digest import digest_hex

#: (sweep index, point, per-point trace directory or None).
_Task = Tuple[int, Point, Optional[str]]
#: ("ok", index, row, wall_s) or ("err", index, formatted error, 0.0).
_Outcome = Tuple[str, int, Any, float]


def _execute_point(task: _Task) -> _Outcome:
    """Worker entry: run one point.  Top-level so spawn can pickle it.

    ``task`` is ``(index, point, trace_dir)``; a non-None ``trace_dir``
    wraps the point in a fresh observability context and exports its
    Chrome trace + span log there (one file pair per point).
    """
    index, point, trace_dir = task
    try:
        driver = driver_for(point.experiment)
        start = time.perf_counter()
        if trace_dir is None:
            row = driver.run_point(point, point.seed)
        else:
            from repro.obs.export import write_chrome_trace, write_jsonl
            from repro.obs.runtime import ObsContext, activate, deactivate

            context = ObsContext.full()
            activate(context)
            try:
                row = driver.run_point(point, point.seed)
            finally:
                deactivate()
            out = Path(trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            if context.tracer is not None:
                write_chrome_trace(
                    out / f"point-{index:03d}.trace.json", context.tracer
                )
                write_jsonl(out / f"point-{index:03d}.spans.jsonl", context.tracer)
        wall = time.perf_counter() - start
        return ("ok", index, row, wall)
    except Exception as exc:  # propagated with context by the parent
        return ("err", index, f"{exc!r}\n{traceback.format_exc()}", 0.0)


@dataclass
class RunReport:
    """What one sweep run produced, plus where every row came from."""

    experiment: str
    profile: str
    run_id: str
    path: Path
    rows: List[Dict[str, Any]]
    digest_hex: str
    computed: int
    cached: int
    resumed: int
    failures: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"{self.experiment} [{self.profile}] run {self.run_id}: "
            f"{len(self.rows)} points "
            f"({self.computed} computed, {self.cached} cached, "
            f"{self.resumed} resumed) in {self.wall_s:.1f}s "
            f"with {self.workers} worker(s)",
            f"run digest {self.digest_hex[:16]}  ->  {self.path}",
        ]
        if self.failures:
            lines.append(f"shape checks FAILED ({len(self.failures)}):")
            lines.extend(f"  - {f}" for f in self.failures)
        else:
            lines.append("shape checks passed")
        return "\n".join(lines)


def run_experiment(
    name: str,
    profile: str = "fast",
    workers: int = 1,
    resume: Optional[str] = None,
    results_dir: str = "results",
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    replicates: int = 1,
    trace: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> RunReport:
    """Run one figure's sweep and persist the result document.

    ``trace=True`` runs every point under a fresh observability context
    and writes per-point Chrome traces + span logs next to the run
    document; the point cache is bypassed for the run (a cached row has
    no trace to export, and a traced row must actually execute).

    Raises :class:`~repro.runner.registry.UnknownExperimentError` /
    :class:`~repro.runner.registry.UnknownProfileError` for bad names,
    and ``RuntimeError`` if any point's computation fails.
    """
    emit = log or (lambda _msg: None)
    if trace:
        use_cache = False
    driver = driver_for(name)
    validate_profile(name, profile)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")

    points: List[Point] = list(driver.sweep(profile))
    if replicates > 1:
        points = [
            Point(p.experiment, p.params, replicate=r)
            for p in points
            for r in range(replicates)
        ]

    code_ver = code_version()
    store = ResultStore(results_dir)
    cache = ResultCache(cache_dir or Path(results_dir) / "_cache")

    resumed_rows: Dict[int, Dict[str, Any]] = {}
    if resume is not None:
        prior = store.load(name, resume)
        by_key = {
            entry["key"]: entry
            for entry in prior.get("points", [])
            if entry.get("row") is not None
        }
        for i, point in enumerate(points):
            entry = by_key.get(point.cache_key(code_ver))
            if entry is not None:
                resumed_rows[i] = entry["row"]
        run_id = resume
    else:
        run_id = store.new_run_id(name)

    cached_rows: Dict[int, Dict[str, Any]] = {}
    if use_cache:
        for i, point in enumerate(points):
            if i in resumed_rows:
                continue
            row = cache.get(point, code_ver)
            if row is not None:
                cached_rows[i] = row

    trace_dir: Optional[str] = None
    if trace:
        trace_dir = str(Path(results_dir) / name / f"{run_id}-traces")
    todo = [
        (i, point, trace_dir)
        for i, point in enumerate(points)
        if i not in resumed_rows and i not in cached_rows
    ]
    emit(
        f"{name} [{profile}]: {len(points)} points — "
        f"{len(resumed_rows)} resumed, {len(cached_rows)} cached, "
        f"{len(todo)} to compute on {workers} worker(s)"
    )
    if trace_dir is not None:
        emit(f"  tracing on: per-point traces -> {trace_dir}/")

    start = time.perf_counter()
    computed_rows: Dict[int, Dict[str, Any]] = {}
    walls: Dict[int, float] = {}
    if todo:
        outcomes: Iterable[_Outcome]
        if workers == 1:
            outcomes = map(_execute_point, todo)
        else:
            import multiprocessing

            ctx = multiprocessing.get_context("spawn")
            pool = ctx.Pool(processes=min(workers, len(todo)))
            try:
                outcomes = list(
                    pool.imap_unordered(_execute_point, todo, chunksize=1)
                )
            finally:
                pool.close()
                pool.join()
        for status, index, payload, wall in outcomes:
            if status != "ok":
                raise RuntimeError(
                    f"{name} point {index} "
                    f"({points[index].label()}) failed:\n{payload}"
                )
            computed_rows[index] = payload
            walls[index] = wall
            emit(f"  point {index:3d} done in {wall:.2f}s {points[index].label()}")
            if use_cache:
                cache.put(points[index], code_ver, payload)

    rows: List[Dict[str, Any]] = []
    entries: List[Dict[str, Any]] = []
    for i, point in enumerate(points):
        if i in resumed_rows:
            row, source = resumed_rows[i], "resume"
        elif i in cached_rows:
            row, source = cached_rows[i], "cache"
        else:
            row, source = computed_rows[i], "computed"
        rows.append(row)
        entries.append(
            {
                "index": i,
                "params": point.params,
                "replicate": point.replicate,
                "seed": point.seed,
                "key": point.cache_key(code_ver),
                "source": source,
                "wall_s": round(walls.get(i, 0.0), 4),
                "row": row,
                "digest_hex": digest_hex(row),
            }
        )

    run_digest = digest_hex(
        {
            "experiment": name,
            "profile": profile,
            "points": [e["digest_hex"] for e in entries],
        }
    )

    # Traced sweeps additionally run the figure's traced companion
    # scenario (a representative packet-level simulation in the figure's
    # regime) in the parent process and embed its analysis series —
    # p_admit trajectories, rolling RNL percentiles vs. SLO, goodput
    # tracks — in the run document.  The series lives OUTSIDE the rows,
    # and the run digest covers only row digests, so traced and plain
    # sweeps stay digest-bit-identical.
    series_doc: Optional[Dict[str, Any]] = None
    if trace and trace_dir is not None:
        from repro.obs.export import write_chrome_trace
        from repro.obs.scenarios import run_traced_figure

        emit(f"  running traced companion scenario for {name}")
        traced_run = run_traced_figure(name, profile=profile)
        series_doc = traced_run.series()
        write_chrome_trace(
            Path(trace_dir) / "companion.trace.json",
            traced_run.tracer,
            traced_run.registry,
        )

    # Every replicate is a whole sweep, so each is judged on its own
    # rows; the traced companion is one run, judged once with the first.
    claims: List[Dict[str, Any]] = []
    failures: List[str] = []
    for r in range(replicates):
        replicate_rows = [
            row for row, point in zip(rows, points) if point.replicate == r
        ]
        verdicts = driver.check(
            replicate_rows, profile, series=series_doc if r == 0 else None
        )
        tag = f" [replicate {r}]" if replicates > 1 else ""
        for claim in verdicts:
            claims.append({**claim._asdict(), "replicate": r})
            if not claim.passed:
                failures.append(
                    f"{claim.id}{tag}: measured {claim.measured:.4g}, "
                    f"bound {claim.bound}"
                )

    wall_s = time.perf_counter() - start
    doc = {
        "experiment": name,
        "run_id": run_id,
        "profile": profile,
        "workers": workers,
        "replicates": replicates,
        "code_version": code_ver,
        "traced": trace,
        "created_unix": int(time.time()),
        "wall_s": round(wall_s, 3),
        "counts": {
            "points": len(points),
            "computed": len(computed_rows),
            "cached": len(cached_rows),
            "resumed": len(resumed_rows),
        },
        "points": entries,
        "run_digest_hex": run_digest,
        "series": series_doc,
        "checks": {"passed": not failures, "failures": failures, "claims": claims},
    }
    path = store.write(doc)

    return RunReport(
        experiment=name,
        profile=profile,
        run_id=run_id,
        path=path,
        rows=rows,
        digest_hex=run_digest,
        computed=len(computed_rows),
        cached=len(cached_rows),
        resumed=len(resumed_rows),
        failures=failures,
        wall_s=wall_s,
        workers=workers,
    )
