"""Parallel sweep orchestration for the per-figure experiment drivers.

Every evaluation figure is a *sweep*: a list of parameter points, each
of which runs one (or a few) simulations and reduces them to a small
metrics row.  The drivers in :mod:`repro.experiments` expose that
structure through a common interface —

* ``PROFILES`` — named parameterizations (``"paper"`` for the
  paper-faithful sweep, ``"fast"`` for a CI-sized one);
* ``sweep(profile) -> list[Point]`` — the points, in report order;
* ``run_point(point, seed) -> dict`` — run one point to a
  JSON-serializable metrics row;
* ``check(rows, profile, series=None) -> list[Claim]`` — the one judge
  of the figure's paper claims (who wins, where the crossover falls,
  SLO tracked): one :class:`~repro.runner.point.Claim` per claim the
  profile bounds, measured on one replicate's rows (plus, on a traced
  sweep, the companion scenario's analysis ``series``);
* ``table(rows) -> str`` — the rows as the paper reports them, which
  the bare ``python -m repro <figure>`` prints.

All five are required: :func:`~repro.runner.registry.driver_for`
refuses a module that lacks one.

On top of that interface this package provides :func:`run_experiment`:
it shards the points across a ``multiprocessing`` worker pool with a
deterministic per-point seed (derived from the point itself, so
``--workers 1`` and ``--workers N`` produce bit-identical results),
consults an on-disk JSON cache keyed by ``(experiment, canonical
params, seed, code version)`` for incremental reruns, and records every
run — per-point rows, determinism digests, every claim's verdict — in a
structured result store under ``results/<experiment>/<run_id>.json``
that later runs can ``--resume``.
"""

from repro.runner.cache import ResultCache, code_version
from repro.runner.point import Claim, Point
from repro.runner.pool import RunReport, run_experiment
from repro.runner.registry import (
    UnknownExperimentError,
    UnknownProfileError,
    available_experiments,
    driver_for,
    profiles_for,
)
from repro.runner.store import ResultStore

__all__ = [
    "Claim",
    "Point",
    "ResultCache",
    "ResultStore",
    "RunReport",
    "UnknownExperimentError",
    "UnknownProfileError",
    "available_experiments",
    "code_version",
    "driver_for",
    "profiles_for",
    "run_experiment",
]
