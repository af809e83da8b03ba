"""Statistics helpers: summaries (:mod:`repro.stats.summary`),
time-series samplers (:mod:`repro.stats.sampler`), determinism digests
(:mod:`repro.stats.digest`).  Convergence detection lives in
:mod:`repro.analysis.convergence`.  Import from the defining module."""
