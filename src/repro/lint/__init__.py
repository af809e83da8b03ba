"""simlint: whole-program static determinism lint for the simulator.

Run it as ``python -m repro lint [paths]`` (or ``python -m repro.lint``).
Single-module rules live in :mod:`repro.lint.rules`, the asyncio rules
in :mod:`repro.lint.asyncrules`, the whole-program taint pass in
:mod:`repro.lint.project`, SARIF output in :mod:`repro.lint.sarif`;
scoping, suppressions and the CLI in :mod:`repro.lint.runner`, which
analyzes every file afresh on each run.  The runtime counterpart —
SimSanitizer — lives in :mod:`repro.sim.sanitize`.
"""

from repro.lint.rules import RULES, RULESET_VERSION, Finding, finding_fingerprint
from repro.lint.runner import (
    HOST_ALLOWLIST,
    SIM_DOMAIN_PREFIXES,
    LintError,
    classify,
    lint_paths,
    lint_source,
    main,
    suppressed_rules,
)
from repro.lint.sarif import to_sarif

__all__ = [
    "Finding",
    "HOST_ALLOWLIST",
    "LintError",
    "RULES",
    "RULESET_VERSION",
    "SIM_DOMAIN_PREFIXES",
    "classify",
    "finding_fingerprint",
    "lint_paths",
    "lint_source",
    "main",
    "suppressed_rules",
    "to_sarif",
]
