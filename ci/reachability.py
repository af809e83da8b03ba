"""List every ``def`` under ``src/repro`` that no entry point reaches.

Usage::

    python ci/reachability.py   # run every entry point, print the list

The script writes a ``sitecustomize.py`` into a scratch directory and
puts that directory first on ``PYTHONPATH``, so every interpreter the
entry points start -- the CLI, the sweep's spawn workers, the live
server and its client processes, the ledger's children -- installs a
first-call hook before it runs anything.  The hook writes one line per
code object the first time it is called (``sys.setprofile`` and
``threading.setprofile``, so every thread is covered).  The entry points are the ones a user or CI types:

* all 19 ``repro run <fig> --profile fast`` sweeps (two workers), then
  fig08 inline, cached, with ``--replicates 2``, with ``--resume`` and
  with ``--trace``; ``REPRO_SANITIZE=1 repro run fig17``;
* ``repro fig10 --quick`` and ``repro list``;
* one ``repro trace`` (fig08);
* ``repro report`` on a run, a traced run and a live directory, and
  ``repro report --diff``;
* ``repro live --telemetry --trace --check-convergence``;
* ``repro lint`` in text and SARIF form and ``--explain``;
* the four ledger workloads, untraced (``--trace 0``);
* the five examples.

A ``def`` whose name is an identifier in ``benchmarks/ledger/**/*.py``
counts as reached: the ledger's micro-probes call some kernel and
scheduler methods only in its all-workloads form.  Those defs are
printed in a section of their own.

Blind spots:

* a call made only at import time looks reached (a default argument
  such as ``Params()`` calls ``__post_init__`` when the module loads);
* a dataclass without methods has no code object of its own, so an
  unused one never shows up here (the class names need a grep);
* a def only reached on an error or empty path shows up as unreached
  (nothing here feeds bad input on purpose).

The script exits 0 whatever it finds: the list is information for a
reader (docs/correctness.md, "Reachability"), not a gate.  It takes
about 15 minutes on two cores.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

FIGURES = (
    "fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 "
    "fig19 fig20 fig21 fig22 fig23 fig24 fig28 nqos"
).split()
LEDGER_WORKLOADS = (
    "sim_incast_32k", "sim_small_rpc_1k", "sweep_fast_trio", "live_closed_8x1k"
)

#: The hook every interpreter loads.  Kept free of repro imports.
SITECUSTOMIZE = '''
import os, sys, threading

_root = os.environ.get("REPRO_REACH_ROOT")
_log_dir = os.environ.get("REPRO_REACH_LOG")
if _root and _log_dir:
    _out = open(os.path.join(_log_dir, "%d.log" % os.getpid()), "a", buffering=1)

    def _record(code):
        if code.co_filename.startswith(_root):
            _out.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))

    _seen = set()

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in _seen:
                _seen.add(code)
                _record(code)

    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''


def entry_points(work: Path) -> List[Tuple[List[str], Dict[str, str]]]:
    """(argv, extra environment) of every command to run, in order."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    results = str(work / "results")
    cache = str(work / "cache")
    run = repro + ["run"]
    common = ["--profile", "fast", "--results-dir", results, "--cache-dir", cache]
    live_dir = str(work / "live")
    cmds: List[Tuple[List[str], Dict[str, str]]] = []
    for fig in FIGURES:
        cmds.append((run + [fig, "--workers", "2", "--no-cache"] + common, {}))
    cmds += [
        (run + ["fig08", "--workers", "1"] + common, {}),  # inline, fills the cache
        (run + ["fig08", "--workers", "1"] + common, {}),  # cached rerun
        (run + ["fig08", "--replicates", "2", "--no-cache"] + common, {}),
        (run + ["fig08", "--resume", "@latest"] + common, {}),
        (run + ["fig09", "--trace"] + common, {}),
        (run + ["fig17", "--no-cache"] + common, {"REPRO_SANITIZE": "1"}),
        (repro + ["fig10", "--quick"], {}),
        (repro + ["list"], {}),
        (repro + ["trace", "fig08", "--profile", "fast",
                  "--out", str(work / "traces")], {}),
        (repro + ["live", "--duration", "4", "--clients", "2", "--telemetry", "--trace",
                  "--check-convergence", "--log-dir", live_dir], {}),
        (repro + ["report", "@fig08", "--results-dir", results,
                  "--emit-summary", str(work / "a.json")], {}),
        (repro + ["report", "@fig09", "--results-dir", results,
                  "--emit-summary", str(work / "b.json")], {}),
        (repro + ["report", live_dir, "--no-html"], {}),
        (repro + ["report", "--diff", str(work / "a.json"), str(work / "a.json")], {}),
        (repro + ["lint", "src", "tests"], {}),
        (repro + ["lint", "src", "--format", "sarif",
                  "--output", str(work / "lint.sarif")], {}),
        (repro + ["lint", "--explain"], {}),
    ]
    for workload in LEDGER_WORKLOADS:
        cmds.append(([py, "benchmarks/ledger/__main__.py", "--workload", workload,
                      "--seed", "1", "--seconds", "2", "--trace", "0"], {}))
    for example in sorted((ROOT / "examples").glob("*.py")):
        cmds.append(([py, str(example)], {}))
    return cmds


def _resolve(argv: List[str], results: Path) -> List[str]:
    """Replace ``@latest``/``@<fig>`` with the newest run id on disk."""
    out = []
    for arg in argv:
        if arg.startswith("@"):
            fig = argv[argv.index("run") + 1] if arg == "@latest" else arg[1:]
            docs = sorted((results / fig).glob("*.json"))
            arg = json.loads(docs[-1].read_text())["run_id"]
        out.append(arg)
    return out


def defined() -> Dict[Tuple[str, int], str]:
    """Every def under src/repro: (file, first line) -> qualified name.

    A decorated def is keyed by its first decorator's line too, which
    is the line its code object reports.
    """
    defs: Dict[Tuple[str, int], str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    lines = {child.lineno} | {d.lineno for d in child.decorator_list}
                    for line in lines:
                        defs[(str(path), line)] = name
                    walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return defs


def ledger_names() -> Set[str]:
    names: Set[str] = set()
    for path in (ROOT / "benchmarks" / "ledger").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add((node.asname or node.name).split(".")[-1])
    return names


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as work:
        return run(Path(work))


def run(work: Path) -> int:
    """Run every entry point with the hook armed; print the unreached defs."""
    logs = work / "logs"
    hook = work / "hook"
    logs.mkdir()
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    env["REPRO_REACH_ROOT"] = str(SRC)
    env["REPRO_REACH_LOG"] = str(logs)

    for cmd, extra in entry_points(work):
        cmd = _resolve(cmd, work / "results")
        proc = subprocess.run(cmd, cwd=ROOT, env={**env, **extra},
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        print(f"[exit {proc.returncode}] {' '.join(cmd[1:])}", file=sys.stderr)
        if proc.returncode:
            print(proc.stderr[-2000:], file=sys.stderr)

    reached: Set[Tuple[str, int]] = set()
    for log in logs.glob("*.log"):
        for line in log.read_text().splitlines():
            path, _, lineno = line.rpartition(":")
            reached.add((path, int(lineno)))
    defs = defined()
    by_def: Dict[str, Set[Tuple[str, int]]] = {}
    for key, name in defs.items():
        by_def.setdefault(f"{key[0]}::{name}", set()).add(key)
    named = ledger_names()
    unreached, ledger_only = [], []
    for ident, keys in sorted(by_def.items()):
        if keys & reached:
            continue
        path, _, name = ident.partition("::")
        row = f"{Path(path).relative_to(SRC.parent)}:{min(k[1] for k in keys)}  {name}"
        (ledger_only if name.rpartition(".")[2] in named else unreached).append(row)
    reached_defs = len(by_def) - len(unreached) - len(ledger_only)
    print(f"# {reached_defs} of {len(by_def)} defs reached")
    print(f"# named in benchmarks/ledger only ({len(ledger_only)}):")
    print("\n".join(ledger_only))
    print(f"# unreached ({len(unreached)}):")
    print("\n".join(unreached))
    return 0


if __name__ == "__main__":
    sys.exit(main())
