"""Analysis: delay bounds, fluid GPS, admissible region, convergence,
attribution, run reports.  Import from the defining module
(``repro.analysis.delay_bounds``, ``repro.analysis.report``, ...); this
init imports nothing, so a caller of one closed form does not load the
report renderer."""
