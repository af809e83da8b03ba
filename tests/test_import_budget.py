"""Exact import-set gates: each entry point loads only what it runs.

One fresh interpreter per row; the row's snippet does what the entry
point does, then the set of loaded modules is compared against the
names that must be absent (a name covers everything under it too).  No
timing — a module either is in ``sys.modules`` or is not.
DESIGN.md ("Cold start") has the rule these rows enforce.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence

import pytest

_ROOT = Path(__file__).resolve().parents[1]

_ROWS = {
    "cli": (
        "import repro.cli",
        ["numpy", "repro.experiments", "repro.runner", "repro.net"],
    ),
    "cold-fig08-sweep": (
        """
import tempfile
from repro.runner import driver_for, run_experiment
driver_for("fig08")
with tempfile.TemporaryDirectory() as scratch:
    report = run_experiment("fig08", "fast", results_dir=scratch)
assert report.ok and report.computed == 11, report.summary()
""",
        [
            "numpy",
            "multiprocessing",
            "repro.experiments.cluster",
            "repro.baselines",
            "repro.analysis.report",
        ],
    ),
    "cluster-first-slice": (
        """
from repro.experiments.cluster import ClusterConfig, attach_traffic, build_cluster
cluster = build_cluster(ClusterConfig(num_hosts=4, duration_ms=1.0, warmup_ms=0.1))
attach_traffic(cluster)
cluster.sim.run(until=200_000)
assert cluster.sim.events_processed > 0
""",
        ["numpy"],
    ),
    "live-client-server": (
        "from repro.live import AdmissionClient, LiveServer",
        [
            "numpy",
            "multiprocessing",
            "repro.analysis",
            "repro.experiments",
            "repro.transport",
            "repro.live.simref",
            "repro.live.runtime",
        ],
    ),
    "ledger-incast-unit": (
        """
import tempfile
from pathlib import Path
from benchmarks.ledger.workloads import load
with tempfile.TemporaryDirectory() as scratch:
    unit = load("sim_incast_32k").run_unit(1, Path(scratch))
assert unit.exact["events"] == 261306, unit.exact
""",
        ["numpy"],
    ),
}


def _loaded_after(snippet: str) -> List[str]:
    """``sys.modules`` of a fresh interpreter after running ``snippet``."""
    code = snippet + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(_ROOT / "src"), str(_ROOT)]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded: List[str] = json.loads(done.stdout.splitlines()[-1])
    return loaded


def _present(loaded: Sequence[str], banned: Sequence[str]) -> List[str]:
    return [m for m in loaded if any(m == b or m.startswith(b + ".") for b in banned)]


@pytest.mark.parametrize("row", sorted(_ROWS))
def test_entry_point_loads_only_what_it_runs(row: str) -> None:
    snippet, banned = _ROWS[row]
    loaded = _loaded_after(snippet)
    assert "repro" in loaded
    assert _present(loaded, banned) == []


def test_the_gate_is_not_vacuous() -> None:
    """numpy does arrive with the first percentile, and the matcher sees it."""
    loaded = _loaded_after(
        "from repro.stats.summary import percentile\n"
        "import sys\n"
        "assert 'numpy' not in sys.modules\n"
        "assert percentile([1.0], 99) == 1.0\n"
    )
    assert "numpy" in _present(loaded, ["numpy"])
    assert _present(loaded, ["repro.stats"]) == ["repro.stats", "repro.stats.summary"]
