"""Experiment drivers — one module per paper figure.

Each module exposes ``run(...)`` returning a result dataclass with a
``table()`` method that prints the same rows/series the paper reports.
``cluster`` holds the shared harness all simulation figures build on.

This package init imports nothing: a closed-form figure (fig08, fig09)
loads neither the cluster harness nor the baselines, and the CLI loads
no figure until one is named.  Import from the module that defines the
name — ``from repro.experiments.cluster import build_cluster``,
``from repro.experiments import fig08``.
"""
