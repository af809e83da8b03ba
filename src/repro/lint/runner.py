"""simlint driver: discovery, scoping, suppression, reporting.

Analysis pipeline (one :func:`lint_paths` pass, nothing kept between
runs):

1. **Discover** — expand the path arguments into a ``*.py`` list,
   de-duplicated on the resolved path (the first spelling is the one
   reported).
2. **Per file** — parse once, run the single-module rules
   (SIM001–SIM011) and the asyncio rules (SIM014–SIM016), drop the
   findings whose line suppresses them, and lower the module to the
   whole-program IR.  Unreadable or unparseable files become structured
   ``SIM000`` findings — one bad file never aborts the run.
3. **Whole program** — run the taint fixpoint
   (:mod:`repro.lint.project`) over every module IR and emit
   SIM012/SIM013, honouring the suppressions of the file each lands in.
4. **Report** — apply ``--select`` and render as text or SARIF 2.1.0
   (:mod:`repro.lint.sarif`).

Scoping model
-------------

Three file classes decide which rules run where:

* **simulator-domain** files (``repro/sim``, ``repro/net``,
  ``repro/core``, ``repro/rpc``, ``repro/transport``,
  ``repro/baselines``) get every rule — this is the code whose
  determinism the digests depend on.  ``repro/live`` is held to the
  same set: it is wall-clock code by nature, but precisely *because*
  of that every OS-clock read must flow through the one audited
  clock-source module (``repro/live/clock.py`` carries the package's
  only ``SIM001`` suppressions).  The whole-program SIM012 rule
  excludes ``repro/live`` from its *target* set (wall-clock is its
  job) while still tracking taint *through* it — a ``WallClock``
  handle leaking into ``repro/core`` is reported at the leak site;
* **host-side allowlisted** files (``repro/cli.py``, ``repro/runner/``,
  ``repro/lint/``, ``repro/__main__.py``) are exempt from the
  wall-clock/global-randomness rules (``SIM001``/``SIM002``/``SIM006``)
  — timing a sweep or seeding a worker pool is their job;
* everything else (experiments, stats, analysis, tests, examples) gets
  every rule except the sim-domain-only set.

Per-line suppression: append ``# simlint: ignore[SIM001]`` (one or more
comma-separated rule ids) to the offending line, or a bare
``# simlint: ignore`` to silence every rule on that line.  Suppressions
are deliberate, documented exceptions — keep them rare.

Exit codes: ``0`` clean, ``1`` findings, ``2`` analysis errors
(``SIM000``) or bad invocation.
"""

from __future__ import annotations

import ast
import dataclasses
import re
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.asyncrules import run_async_rules
from repro.lint.project import analyze_project, extract_module_ir
from repro.lint.rules import (
    Finding,
    HOST_EXEMPT,
    RULES,
    SIM_DOMAIN_ONLY,
    finding_fingerprint,
    parse_rule_list,
    run_rules,
)
from repro.lint.sarif import render_sarif

#: Path fragments (posix) marking simulator-domain packages.
SIM_DOMAIN_PREFIXES: Tuple[str, ...] = (
    "repro/sim/",
    "repro/net/",
    "repro/core/",
    "repro/rpc/",
    "repro/transport/",
    "repro/baselines/",
    # Live-mode runtime: wall-clock by nature, which is exactly why its
    # clock reads are confined to the audited repro/live/clock.py
    # suppressions — a stray time.monotonic() anywhere else fails lint.
    "repro/live/",
)

#: Path fragments (posix) of host-side code exempt from SIM001/002/006.
HOST_ALLOWLIST: Tuple[str, ...] = (
    "repro/cli.py",
    "repro/__main__.py",
    "repro/runner/",
    "repro/lint/",
)

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: Line number -> the rules that line suppresses (``None`` for all).
Suppressions = Dict[int, Optional[Set[str]]]


class LintError(Exception):
    """A path argument could not be analyzed at all (bad invocation)."""


def classify(path: str) -> str:
    """``"sim"``, ``"host"``, or ``"general"`` for a posix-ish path."""
    posix = Path(path).as_posix()
    if any(fragment in posix for fragment in HOST_ALLOWLIST):
        return "host"
    if any(fragment in posix for fragment in SIM_DOMAIN_PREFIXES):
        return "sim"
    return "general"


def rules_for(path: str) -> Set[str]:
    """The rule ids that apply to one file."""
    enabled = set(RULES)
    kind = classify(path)
    if kind == "host":
        enabled -= HOST_EXEMPT
    elif kind == "general":
        enabled -= SIM_DOMAIN_ONLY
    return enabled


def suppressed_rules(line: str) -> Optional[Set[str]]:
    """Rules a source line suppresses: a set, or ``None`` for *all*."""
    match = _SUPPRESS_RE.search(line)
    if match is None:
        return set()
    spec = match.group("rules")
    if spec is None:
        return None  # bare `# simlint: ignore` silences everything
    return {part.strip().upper() for part in spec.split(",") if part.strip()}


def suppression_map(source_lines: Sequence[str]) -> Suppressions:
    """The suppressions of every line (1-based) that carries one."""
    result: Suppressions = {}
    for number, line in enumerate(source_lines, start=1):
        if "simlint" not in line:
            continue
        rules = suppressed_rules(line)
        if rules is None or rules:
            result[number] = rules
    return result


def _is_suppressed(finding: Finding, smap: Suppressions) -> bool:
    if finding.line not in smap:
        return False
    rules = smap[finding.line]
    return rules is None or finding.rule in rules


def _fingerprinted(finding: Finding, source_lines: Sequence[str]) -> Finding:
    """The finding with its drift-tolerant fingerprint filled in.

    The salt is the stripped offending source line (falling back to the
    message when the line is out of range), so edits elsewhere in the
    file do not change it.
    """
    if 0 < finding.line <= len(source_lines):
        salt = source_lines[finding.line - 1].strip()
    else:
        salt = finding.message
    return dataclasses.replace(
        finding, fingerprint=finding_fingerprint(finding.rule, finding.path, salt)
    )


def _analysis_error(path: str, line: int, col: int, message: str) -> Finding:
    return Finding(
        path=path,
        line=line,
        col=col,
        rule="SIM000",
        message=message,
        fingerprint=finding_fingerprint("SIM000", path, message),
    )


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a list naming each file once.

    Two spellings of one file (relative and absolute, or through ``..``)
    count as one; the first spelling met is the one kept.
    """
    seen: Set[Path] = set()
    ordered: List[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            candidates = [root]
        else:
            raise LintError(f"{raw}: not a Python file or directory")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def _lint_modules(modules: Sequence[Tuple[str, str]]) -> List[Finding]:
    """Every finding in the ``(path, source)`` modules, one program."""
    findings: List[Finding] = []
    irs: List[Dict[str, Any]] = []
    suppressions: Dict[str, Suppressions] = {}
    for path, source in modules:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            message = f"syntax error: {exc.msg}"
            findings.append(
                _analysis_error(path, exc.lineno or 1, exc.offset or 1, message)
            )
            continue
        lines = source.splitlines()
        smap = suppressions[path] = suppression_map(lines)
        enabled = rules_for(path)
        local = run_rules(tree, path, enabled)
        local.extend(run_async_rules(tree, path, enabled))
        findings.extend(
            _fingerprinted(f, lines) for f in local if not _is_suppressed(f, smap)
        )
        irs.append(extract_module_ir(tree, path, classify(path)))
    for finding in analyze_project(irs):
        if not _is_suppressed(finding, suppressions[finding.path]):
            findings.append(finding)
    return findings


def _report(findings: List[Finding], select: Optional[Sequence[str]]) -> List[Finding]:
    """Findings sorted by location, ``--select`` applied (never to SIM000)."""
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if select:
        wanted = set(select)
        findings = [f for f in findings if f.rule in wanted or f.rule == "SIM000"]
    return findings


def lint_source(
    source: str, path: str, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint one in-memory module (the unit the fixture tests drive).

    Runs the complete pipeline — single-module rules, asyncio rules,
    and the whole-program pass over this one module's IR — so fixtures
    exercise SIM012/SIM013 resolution without touching the filesystem.
    Syntax errors come back as ``SIM000`` findings, never exceptions.
    """
    return _report(_lint_modules([(path, source)]), select)


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint every file under ``paths`` as one program.

    Returns every finding sorted by location, ``SIM000`` analysis
    errors included (``--select`` never hides those).  Raises
    :class:`LintError` for a path that is neither a directory nor a
    ``.py`` file.
    """
    modules: List[Tuple[str, str]] = []
    unreadable: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            data = path.read_bytes()
        except OSError as exc:
            unreadable.append(_analysis_error(str(path), 1, 1, f"unreadable: {exc}"))
            continue
        modules.append((str(path), data.decode("utf-8", errors="replace")))
    return _report(unreadable + _lint_modules(modules), select)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro lint`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simlint: static determinism checks for the simulator.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to report (default: all)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="list every rule with its description and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    args = parser.parse_args(argv)

    if args.explain:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id]}")
        return 0

    try:
        select = parse_rule_list(args.select) if args.select else None
        report = lint_paths(args.paths, select=select)
    except (LintError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    errors = [f for f in report if f.rule == "SIM000"]
    findings = [f for f in report if f.rule != "SIM000"]

    if args.format == "sarif":
        payload = render_sarif(report)
        if args.output:
            Path(args.output).write_text(payload, encoding="utf-8")
        else:
            print(payload, end="")
        # Keep the human-readable findings visible in CI logs even when
        # the SARIF document goes to a file.
        stream = sys.stderr if not args.output else sys.stdout
        for finding in findings:
            print(finding.render(), file=stream)
    else:
        lines = [f.render() for f in findings]
        if args.output:
            Path(args.output).write_text(
                "".join(line + "\n" for line in lines), encoding="utf-8"
            )
        else:
            for line in lines:
                print(line)
    for error in errors:
        print(error.render(), file=sys.stderr)

    if errors:
        return 2
    if findings:
        print(
            f"simlint: {len(findings)} finding(s) "
            f"({len({f.path for f in findings})} file(s))"
        )
        return 1
    return 0
