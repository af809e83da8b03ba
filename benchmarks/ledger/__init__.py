"""The performance ledger: the repo's one benchmark.

Four fixed-work workloads, three end-to-end metrics measured with
tracing off, and ~70 per-layer metrics from a separate traced run —
all driven through ``repro``'s public API from a single process.  The
timing estimators are built to *repeat* on a shared host: a run repeats
one identical unit of work, cuts it at fixed work boundaries into
slices, and takes each slice's minimum over the repetitions (see
:mod:`benchmarks.ledger.estimator`).

Entry point: ``python3 benchmarks/ledger/__main__.py`` (equivalently
``python3 -m benchmarks.ledger`` from the repo root).  ``README.md`` in
this directory says what the ledger shows and what it does not;
``NOISE.md`` is the measured record the bounds were derived from.
"""
