"""Layer map and layer self time.

Every file under ``src/repro`` belongs to exactly one layer.  Layer
self time comes from ``cProfile``, post-processed by charging every
function's self time to the layer of the nearest ``src/repro`` frame at
or above it: ``json.dumps`` under ``live/wire.py`` is ``live.wire``,
``heapq`` under ``sim/engine.py`` is ``sim``, and event-loop
bookkeeping under no ``repro`` frame is ``loop``.  The profiler records
caller->callee edges, not stacks, so a stdlib function reached from two
layers splits its callees' time between them in proportion to the time
of the two edges (the gprof assumption); and per-call hook cost
over-weights small functions.  Shares are indicative; counts of
``repro`` function calls are exact.
"""

from __future__ import annotations

import cProfile
import functools
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro
from benchmarks.ledger.catalog import LAYERS

REPRO_ROOT = Path(repro.__file__).resolve().parent
LEDGER_ROOT = Path(__file__).resolve().parent

#: Packages that are a layer of their own.
_PACKAGE_LAYER = {
    name: name
    for name in (
        "sim", "net", "transport", "rpc", "core", "experiments", "runner",
        "analysis", "stats", "obs",
    )
}
# Scheme wiring reached only through the cluster harness; the static
# analyzer is an analysis tool no workload runs.
_PACKAGE_LAYER.update({"baselines": "experiments", "lint": "analysis"})

#: Files outside those packages, one layer each.  ``live/clock.py`` is
#: the ``core.clocks`` port's wall-clock implementation and is read by
#: client and server alike, so it sits with ``core`` (shared by design).
_FILE_LAYER = {
    "__init__.py": "runner",
    "__main__.py": "runner",
    "cli.py": "runner",
    "live/wire.py": "live.wire",
    "live/client.py": "live.client",
    "live/server.py": "live.server",
    "live/events.py": "live.events",
    "live/clock.py": "core",
    "live/telemetry.py": "obs",
    # Orchestration around the client driver and its workload spec.
    "live/__init__.py": "live.client",
    "live/workload.py": "live.client",
    "live/runtime.py": "live.client",
    "live/simref.py": "live.client",
    "live/convergence.py": "live.client",
}


def layer_of(relative: str) -> str:
    """Layer of one file, given its path relative to ``src/repro``.

    Raises ``KeyError`` for a file no rule covers, so a new package
    cannot silently fall out of the ledger.
    """
    if relative in _FILE_LAYER:
        return _FILE_LAYER[relative]
    head, _, rest = relative.partition("/")
    if rest and head in _PACKAGE_LAYER:
        return _PACKAGE_LAYER[head]
    raise KeyError(f"no layer rule covers src/repro/{relative}")


_HARNESS = "harness"  # the ledger's own frames: measured, then excluded
_LOOP_MARKS = ("/asyncio/", "/selectors.py", "/socket.py")


@functools.lru_cache(maxsize=None)
def _file_class(filename: str) -> Optional[str]:
    try:
        relative = Path(filename).resolve().relative_to(REPRO_ROOT)
    except ValueError:
        pass
    else:
        return layer_of(relative.as_posix())
    if filename.startswith(str(LEDGER_ROOT)):
        return _HARNESS
    if any(mark in filename for mark in _LOOP_MARKS):
        return "loopish"
    return None


def _own_class(code: Any) -> Optional[str]:
    """A definite layer / harness / 'loopish', or None to inherit."""
    if isinstance(code, str):  # a builtin: no file of its own
        return None
    return _file_class(code.co_filename)


class LayerProfile:
    """cProfile over a region, attributed to layers afterwards."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    def enable(self) -> None:
        self._profile.enable()

    def disable(self) -> None:
        self._profile.disable()

    def attribute(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(self seconds, call count)`` per layer, harness excluded."""
        entries = self._profile.getstats()
        own = {e.code: _own_class(e.code) for e in entries}
        # Caller edges of every function, with the edge's inclusive time.
        callers: Dict[Any, List[Tuple[Any, float]]] = {e.code: [] for e in entries}
        for entry in entries:
            for sub in entry.calls or ():
                callers[sub.code].append((entry.code, max(sub.totaltime, 1e-12)))

        def resolved(code: Any, context: Dict[Any, Dict[str, float]]) -> Dict[str, float]:
            kind = own[code]
            if kind is not None and kind != "loopish":
                return {kind: 1.0}
            return context.get(code, {})

        def root_of(code: Any) -> str:
            return "loop" if own[code] == "loopish" else _HARNESS

        # Fixed point of "a non-repro function is in whatever layers
        # its callers are in, weighted by edge time"; recursion (json,
        # deepcopy) makes the call graph cyclic, hence the iteration.
        floating = [c for c, kind in own.items() if kind is None or kind == "loopish"]
        context: Dict[Any, Dict[str, float]] = {c: {root_of(c): 1.0} for c in floating}
        for _ in range(40):
            updated: Dict[Any, Dict[str, float]] = {}
            for code in floating:
                mix: Dict[str, float] = {}
                total = 0.0
                for caller, inclusive in callers[code]:
                    if caller is code:
                        continue
                    for layer, share in resolved(caller, context).items():
                        mix[layer] = mix.get(layer, 0.0) + share * inclusive
                    total += inclusive
                if total <= 0.0:
                    updated[code] = {root_of(code): 1.0}
                    continue
                mix = {layer: v / total for layer, v in mix.items()}
                if own[code] == "loopish" and _HARNESS in mix:
                    # Loop machinery started by the ledger itself runs
                    # under no repro frame: that is the loop's own time.
                    mix["loop"] = mix.get("loop", 0.0) + mix.pop(_HARNESS)
                updated[code] = mix
            context = updated

        seconds = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0.0 for layer in LAYERS}
        for entry in entries:
            code = entry.code
            kind = own[code]
            if kind in seconds:
                seconds[kind] += entry.inlinetime
                calls[kind] += entry.callcount
                continue
            if kind == _HARNESS:
                continue
            for layer, share in context[code].items():
                if layer in seconds:
                    seconds[layer] += entry.inlinetime * share
                    if kind == "loopish" and layer == "loop":
                        calls["loop"] += entry.callcount * share
        return seconds, calls
