"""Short-lived helper processes of a run; each runs alone.

``setup``: what a user pays before the first unit of work, timed inside
a fresh interpreter from this module's first statement to "first
operation done" (imports -> build -> first op).  Interpreter boot is
Python's cost, not the repo's; the parent reports it separately.

``sanitize``: one untimed unit under ``REPRO_SANITIZE=1`` (the parent
sets the variable), to compare against the plain unit's digest.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402  (the clock must start first)
from typing import Any, Dict, List  # noqa: E402


def main(argv: List[str]) -> int:
    mode, name, seed, scratch = argv[0], argv[1], int(argv[2]), argv[3]
    from benchmarks.ledger.workloads import load

    workload = load(name)
    imported = time.perf_counter()
    out: Dict[str, Any]
    if mode == "setup":
        workload.first_op(seed, scratch)
        out = {"import_s": imported - _START, "total_s": time.perf_counter() - _START}
    elif mode == "sanitize":
        from pathlib import Path

        from repro.sim.sanitize import SanitizerError

        try:
            unit = workload.run_unit(seed, Path(scratch))
        except SanitizerError as exc:
            out = {"error": str(exc)}
        else:
            out = {"exact": unit.exact}
    else:
        raise SystemExit(f"unknown child mode {mode!r}")
    import json  # after the clock has stopped: not every workload's repro imports it

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
