"""``compare A.json B.json``: did B regress against A?

One row per (end-to-end metric, workload), each ratio with its base.
A row is ``regressed`` when B's median is worse than A's by more than
the catalogue's bound; otherwise ``unresolved`` when the quartile
spread of either side is wider than the bound (unless every run of B
reads better than every run of A); otherwise ``unchanged``.  Exact
counters and digests are compared per (workload, seed) and any that
differ are listed — they compare two versions of one program and omit
waiting, so they are reported as counts, not speed-ups.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Tuple

from benchmarks.ledger import catalog
from benchmarks.ledger.estimator import quartile_spread


def load(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        document: Dict[str, Any] = json.load(fh)
    if document.get("schema") != "ledger/1":
        raise ValueError(f"{path}: not a ledger file")
    return document


def values_of(document: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [
        run["result"]["metrics"][metric]["value"]
        for run in document["runs"]
        if run["workload"] == workload and run["trace"] == 0
    ]


def judge(metric: catalog.Metric, base: List[float], new: List[float]) -> Tuple[str, float]:
    """``(status, worse_by)`` where ``worse_by`` is the share of the
    base median by which the new median is worse (negative = better)."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (new_median - base_median) / base_median
    if worse_by > metric.bound:
        return "regressed", worse_by
    wide = max(quartile_spread(base), quartile_spread(new)) > metric.bound
    all_better = (
        max(new) < min(base) if metric.better == "lower" else min(new) > max(base)
    )
    if wide and not all_better:
        return "unresolved", worse_by
    return "unchanged", worse_by


def exact_differences(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Exact per-layer counters and digests that differ for a seed."""
    bitwise = {w.name for w in catalog.WORKLOADS if w.bitwise}

    def exact_metrics(workload: str) -> List[str]:
        return [
            m.name for m in catalog.PER_LAYER
            if m.exact == "always" or (m.exact == "bitwise" and workload in bitwise)
        ]

    def table(document: Dict[str, Any]) -> Dict[Tuple[str, int], Dict[str, Any]]:
        out: Dict[Tuple[str, int], Dict[str, Any]] = {}
        for run in document["runs"]:
            row = out.setdefault((run["workload"], run["seed"]), {})
            for key, value in run["info"].get("exact", {}).items():
                row[f"exact.{key}"] = value
            if run["trace"] == 1:
                for name in exact_metrics(run["workload"]):
                    row[name] = run["result"]["metrics"][name]["value"]
        return out

    ours, theirs = table(a), table(b)
    lines = []
    for key in sorted(set(ours) & set(theirs)):
        for name in sorted(set(ours[key]) & set(theirs[key])):
            if ours[key][name] != theirs[key][name]:
                lines.append(
                    f"{key[0]} seed={key[1]} {name}: {ours[key][name]!r} -> "
                    f"{theirs[key][name]!r}"
                )
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: compare A.json B.json", file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    print(
        f"{'metric':14s} {'workload':18s} {'base':>12s} {'new':>12s} {'ratio':>7s} "
        f"{'spread A':>9s} {'spread B':>9s} {'bound':>6s}  status"
    )
    regressed = False
    for metric in catalog.END_TO_END:
        for workload in catalog.WORKLOAD_NAMES:
            base, new = values_of(a, workload, metric.name), values_of(b, workload, metric.name)
            if not base or not new:
                continue
            status, _worse_by = judge(metric, base, new)
            regressed |= status == "regressed"
            base_median, new_median = statistics.median(base), statistics.median(new)
            print(
                f"{metric.name:14s} {workload:18s} {base_median:12.5g} {new_median:12.5g} "
                f"{new_median / base_median:7.3f} {quartile_spread(base):9.3f} "
                f"{quartile_spread(new):9.3f} {metric.bound:6.2f}  {status}"
                f"  (n={len(base)}/{len(new)}, unit {metric.unit}, {metric.better} is better)"
            )
    differences = exact_differences(a, b)
    if differences:
        print("exact counters and digests that differ:")
        for line in differences:
            print(f"  {line}")
    else:
        print("exact counters and digests: identical wherever both files have the seed")
    return 1 if regressed else 0
