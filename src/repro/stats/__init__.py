"""Statistics helpers: summaries (:mod:`repro.stats.summary`),
time-series samplers (:mod:`repro.stats.sampler`), convergence
(:mod:`repro.stats.convergence`), determinism digests
(:mod:`repro.stats.digest`).  Import from the defining module."""
