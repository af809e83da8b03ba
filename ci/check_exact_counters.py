#!/usr/bin/env python3
"""Gate the ledger's exact counters: ``ledger --trace 1 | check_exact_counters.py WORKLOAD``.

Reads a traced ledger run from stdin (echoing it, so the CI log keeps
the full output), takes the JSON result on its last line and compares
the counters committed in ``ci/exact-counters.json`` for WORKLOAD —
events and packets per unit of work on the simulator workloads, header
bytes and log records per call on the live one, which repeat exactly
for a seed — for equality.  A 1 % event regression, or one more byte on
the wire, is invisible to wall-clock on a shared runner; here it is a
failed step.  A change that legitimately moves a counter updates the
JSON in the same diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    workload = sys.argv[1]
    doc = json.loads(Path(__file__).with_name("exact-counters.json").read_text())
    expected = doc["workloads"][workload]
    last = ""
    for line in sys.stdin:
        sys.stdout.write(line)
        if line.strip():
            last = line
    metrics = json.loads(last)["metrics"]
    moved = {
        name: (value, metrics[name]["value"])
        for name, value in expected.items()
        if metrics[name]["value"] != value
    }
    for name, (want, got) in moved.items():
        print(f"exact counter moved: {workload} {name}: committed {want!r}, measured {got!r}")
    if moved:
        print("update ci/exact-counters.json in the same change if the move is intended")
        return 1
    print(f"exact counters hold: {workload} {sorted(expected)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
