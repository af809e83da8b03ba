"""Baseline systems compared against Aequitas (Sections 6.7 and 6.10):
pFabric, QJump, D3, PDQ, Homa and strict priority queuing, one module
each over the shared deadline machinery in
:mod:`repro.baselines.deadline`.  Import from the defining module."""
