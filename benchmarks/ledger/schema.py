"""Validation of the benchmark document and of every result line.

Both validators return a list of problems (empty = valid) instead of
raising, so a caller can print all of them at once.  The limits are the
``BENCHMARK.json`` contract's; the metric sets come from the catalogue.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Sequence

from benchmarks.ledger import catalog

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
_DOC_KEYS = ("command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
MAX_BOUND = 0.25
MAX_DOC_BYTES = 64 * 1024


def _metric_entries(
    entries: Any, label: str, keys: Sequence[str], limit: int, names: List[str]
) -> List[str]:
    if not isinstance(entries, list) or not 1 <= len(entries) <= limit:
        return [f"{label}: need a list of 1..{limit} metrics"]
    problems = []
    for i, entry in enumerate(entries):
        where = f"{label}[{i}]"
        if not isinstance(entry, dict) or sorted(entry) != sorted(keys):
            problems.append(f"{where}: keys must be exactly {sorted(keys)}")
            continue
        if not isinstance(entry["name"], str) or not _NAME.match(entry["name"]):
            problems.append(f"{where}: bad name {entry['name']!r}")
        else:
            names.append(entry["name"])
        if not isinstance(entry["unit"], str) or not _UNIT.match(entry["unit"]):
            problems.append(f"{where}: bad unit {entry['unit']!r}")
        if entry["better"] not in ("lower", "higher"):
            problems.append(f"{where}: better must be 'lower' or 'higher'")
        if "bound" in keys:
            bound = entry["bound"]
            if (
                isinstance(bound, bool)
                or not isinstance(bound, (int, float))
                or not 0 < bound <= MAX_BOUND
            ):
                problems.append(f"{where}: bound must be in (0, {MAX_BOUND}]")
    return problems


def validate_document(doc: Any) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document against the contract."""
    if not isinstance(doc, dict) or sorted(doc) != sorted(_DOC_KEYS):
        return [f"document keys must be exactly {sorted(_DOC_KEYS)}"]
    problems: List[str] = []
    if len(json.dumps(doc, indent=2)) > MAX_DOC_BYTES:
        problems.append("document exceeds 64 KiB")

    paths = doc["paths"]
    if (
        not isinstance(paths, list)
        or not 1 <= len(paths) <= 16
        or not all(
            isinstance(p, str)
            and _PATH.match(p)
            and not p.startswith("/")
            and ".." not in p.split("/")
            for p in paths
        )
    ):
        problems.append("paths: need 1..16 relative directory names")
        paths = []

    command = doc["command"]
    if (
        not isinstance(command, list)
        or not 1 <= len(command) <= 32
        or not all(isinstance(c, str) and 0 < len(c) <= 200 for c in command)
    ):
        problems.append("command: need 1..32 strings of at most 200 characters")
    else:
        for arg in command:
            if arg.startswith("/") or ".." in arg.split("/"):
                problems.append(f"command: {arg!r} leaves the repo")
            elif "/" in arg and not any(
                arg == p or arg.startswith(p.rstrip("/") + "/") for p in paths
            ):
                problems.append(f"command: {arg!r} is outside paths")

    seconds = doc["run_seconds"]
    if isinstance(seconds, bool) or not isinstance(seconds, int) or not 1 <= seconds <= 60:
        problems.append("run_seconds: need a whole number 1..60")

    names: List[str] = []
    workloads = doc["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        problems.append("workloads: need 2..8")
    else:
        for i, w in enumerate(workloads):
            if not isinstance(w, dict) or sorted(w) != ["name", "why"]:
                problems.append(f"workloads[{i}]: keys must be exactly name, why")
                continue
            if not isinstance(w["name"], str) or not _NAME.match(w["name"]):
                problems.append(f"workloads[{i}]: bad name {w['name']!r}")
            else:
                names.append(w["name"])
            why = w["why"]
            if not isinstance(why, str) or not 0 < len(why) <= 200 or "\n" in why:
                problems.append(f"workloads[{i}]: why must be one line, <=200 chars")

    e2e_keys = ("name", "unit", "better", "bound")
    problems += _metric_entries(doc["end_to_end"], "end_to_end", e2e_keys, 16, names)
    problems += _metric_entries(
        doc["per_layer"], "per_layer", ("name", "unit", "better"), 128, names
    )
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        problems.append(f"names used more than once: {dupes}")

    e2e = doc["end_to_end"] if isinstance(doc["end_to_end"], list) else []
    setup = [m for m in e2e if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must hold setup_s (unit s, better lower)")
    return problems


def validate_result(result: Any, trace: bool) -> List[str]:
    """Problems with one result line for a ``--trace`` mode."""
    keys = ["attempted", "correct", "failed", "metrics"]
    if not isinstance(result, dict) or sorted(result) != keys:
        return [f"result keys must be exactly {keys}"]
    problems: List[str] = []
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key, floor in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < floor:
            problems.append(f"{key} must be a whole number >= {floor}")
    expected = catalog.PER_LAYER if trace else catalog.END_TO_END
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    want = {m.name: m for m in expected}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        problems.append(f"metric set differs: missing {missing}, unexpected {extra}")
    for name, entry in metrics.items():
        if name not in want:
            continue
        if not isinstance(entry, dict) or sorted(entry) != ["unit", "value"]:
            problems.append(f"{name}: keys must be exactly value, unit")
            continue
        if entry["unit"] != want[name].unit:
            problems.append(f"{name}: unit {entry['unit']!r} != {want[name].unit!r}")
        value = entry["value"]
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or value < 0
        ):
            problems.append(f"{name}: value must be a finite non-negative number")
        elif not trace and value == 0:
            problems.append(f"{name}: an end-to-end metric may never read 0")
    return problems


def result_line(
    correct: bool, attempted: int, failed: int, values: Dict[str, float], trace: bool
) -> Dict[str, Any]:
    """Shape measured values into the result object for one mode."""
    expected = catalog.PER_LAYER if trace else catalog.END_TO_END
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": values.get(m.name, 0.0), "unit": m.unit}
            for m in expected
        },
    }
