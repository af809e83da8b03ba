"""Experiment drivers — one module per paper figure.

Every figure driver *is* its sweep: ``PROFILES``, ``sweep(profile)``,
``run_point(point, seed)``, ``check(rows, profile, series=None)`` and
``table(rows)``, all required (see :mod:`repro.runner`).  ``check``
returns one claim per paper claim the profile bounds (its ``BOUNDS``);
``table`` prints the same rows/series the paper reports.  ``cluster`` holds the
shared harness all simulation figures build on.

This package init imports nothing: a closed-form figure (fig08, fig09)
loads neither the cluster harness nor the baselines, and the CLI loads
no figure until one is named.  Import from the module that defines the
name — ``from repro.experiments.cluster import build_cluster``,
``from repro.experiments import fig08``.
"""
