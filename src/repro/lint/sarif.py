"""SARIF 2.1.0 emission for simlint findings.

``python -m repro lint --format sarif`` renders the run as a single
SARIF log so GitHub code scanning (via ``codeql-action/upload-sarif``)
annotates PR diffs with the findings inline.  Only the required /
load-bearing subset of the spec is emitted:

* ``version`` / ``$schema`` — 2.1.0;
* one run with ``tool.driver`` carrying the analyzer name, the
  rule-set version, and the full rule catalogue (id + short
  description), so viewers resolve ``ruleId`` references;
* one ``result`` per finding with ``ruleId``, ``level``,
  ``message.text``, a physical location (relative URI + 1-based
  line/column), and the simlint fingerprint under
  ``partialFingerprints`` so code scanning tracks a finding across
  line drift.

Findings gate CI through the exit code; SIM000 analysis errors are
``error`` level, rule findings ``warning`` (they annotate the diff —
the red X comes from the job, not the annotation level).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro.lint.rules import RULES, RULESET_VERSION, Finding

_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _result(finding: Finding) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.rule,
        "level": "error" if finding.rule == "SIM000" else "warning",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": Path(finding.path).as_posix(),
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": max(finding.col, 1),
                    },
                }
            }
        ],
    }
    if finding.fingerprint:
        result["partialFingerprints"] = {
            "simlintFingerprint/v1": finding.fingerprint
        }
    return result


def to_sarif(findings: Iterable[Finding]) -> Dict[str, Any]:
    """The findings as a SARIF 2.1.0 log document (JSON-ready dict)."""
    rules: List[Dict[str, Any]] = [
        {
            "id": rule_id,
            "name": rule_id,
            "shortDescription": {"text": description},
        }
        for rule_id, description in sorted(RULES.items())
    ]
    return {
        "version": "2.1.0",
        "$schema": _SCHEMA_URI,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "version": RULESET_VERSION,
                        "rules": rules,
                    }
                },
                "results": [_result(finding) for finding in findings],
            }
        ],
    }


def render_sarif(findings: Iterable[Finding]) -> str:
    """The SARIF log serialized for ``--output`` / stdout."""
    return json.dumps(to_sarif(findings), indent=2) + "\n"
