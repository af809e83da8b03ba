"""Command line of the ledger.

``--workload NAME --seed N --seconds S --trace 0|1`` is the driver's
contract: one run, every metric printed by name with its unit, and as
the last line of standard output one JSON result object.  With no
workload, every workload runs (untraced, then traced; ``--trace``
keeps one of the two), each as its own process so that one run's peak
memory cannot leak into the next, and a ledger file is written.
``compare A.json B.json`` reads two of those.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from benchmarks.ledger import catalog
from benchmarks.ledger.schema import validate_result

_INFO_PREFIX = "# info "


@contextmanager
def _scratch(name: str, keep: Optional[str]) -> Iterator[Path]:
    """Where results dirs, event logs and ``trace.json`` go: a temporary
    directory deleted on the way out, unless the caller named one to keep."""
    if keep is not None:
        path = Path(keep).resolve()
        path.mkdir(parents=True, exist_ok=True)
        yield path
    else:
        with tempfile.TemporaryDirectory(prefix=f"ledger-{name}-") as temporary:
            yield Path(temporary)


def _print_metrics(result: Dict[str, Any]) -> None:
    for name, entry in result["metrics"].items():
        print(f"  {name:36s} {entry['value']:>16.6g} {entry['unit']}")


def run_one(name: str, seed: int, seconds: float, trace: bool, keep: Optional[str]) -> int:
    from benchmarks.ledger import run
    from benchmarks.ledger.workloads import load

    workload = load(name)
    runner = run.run_traced if trace else run.run_untraced
    with _scratch(name, keep) as scratch:
        result, info = runner(workload, seed, seconds, scratch)
    problems = info["problems"] + validate_result(result, trace)
    work_unit = next(w.work_unit for w in catalog.WORKLOADS if w.name == name)
    print(f"{name} seed={seed} seconds={seconds:g} trace={int(trace)} (work = {work_unit})")
    _print_metrics(result)
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(_INFO_PREFIX + json.dumps(info))
    print(json.dumps(result))
    return 1 if problems else 0


def run_pass(seed: int, seconds: float, traces: Sequence[int]) -> Tuple[List[Dict[str, Any]], bool]:
    """Every workload once per trace mode, each run in its own process;
    ``(runs, failed)`` in the ledger file's shape."""
    entry = str(Path(__file__).resolve().parent / "__main__.py")
    runs: List[Dict[str, Any]] = []
    failed = False
    for trace in traces:
        for name in catalog.WORKLOAD_NAMES:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, entry, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True,
                text=True,
            )
            lines = done.stdout.splitlines()
            info = next(
                (json.loads(line[len(_INFO_PREFIX):]) for line in lines
                 if line.startswith(_INFO_PREFIX)),
                {},
            )
            print("\n".join(l for l in lines[:-1] if not l.startswith(_INFO_PREFIX)))
            if done.returncode != 0:
                failed = True
                print(done.stderr, file=sys.stderr)
                continue
            runs.append(
                {"workload": name, "seed": seed, "trace": trace,
                 "wall_s": time.perf_counter() - started,
                 "result": json.loads(lines[-1]), "info": info}
            )
    return runs, failed


def write_ledger(path: str, seconds: float, runs: List[Dict[str, Any]]) -> None:
    document = {"schema": "ledger/1", "seconds": seconds, "runs": runs}
    Path(path).write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {path} ({len(runs)} runs)")


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        from benchmarks.ledger.compare import main as compare_main

        return compare_main(argv[1:])

    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__)
    parser.add_argument("--workload", choices=catalog.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scratch", help="with --workload: keep scratch output (incl. trace.json) here")
    parser.add_argument("--output", help="without --workload: the ledger file (default: a new file in the temp dir)")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scratch)
    traces = (0, 1) if args.trace is None else (args.trace,)
    runs, failed = run_pass(args.seed, args.seconds, traces)
    output = args.output
    if output is None:
        handle, output = tempfile.mkstemp(prefix="ledger-", suffix=".json")
        os.close(handle)
    write_ledger(output, args.seconds, runs)
    return 1 if failed else 0
