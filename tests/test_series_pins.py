"""Literal pins of the analysis series documents, sim and live.

Every pin is a SHA-256 of ``json.dumps(value, sort_keys=True)``, so any
change to how a series quantity is computed — p_admit extraction and
forward fill, rolling RNL, goodput, queue residency, flow summary,
attribution, miss rate — moves one of them:

* ``TracedRun.series()`` (``alerts`` dropped) for the fig08 (WFQ) and
  fig19 (SPQ) traced companions, shrunk to 4 hosts x 2 ms, each in a
  fresh interpreter: RPC ids come from a process-wide counter and the
  attribution exemplars carry them;
* ``load_live_run(...)["series"]`` for the synthetic live run directory
  of ``tests/test_live_report.py``, with and without its metrics log;
* the sim-vs-live gate's report text for the 8 s simulator reference.

Regenerate with ``PYTHONPATH=src python -m tests.test_series_pins`` only
when a series is meant to move.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.analysis.report import load_live_run
from repro.live.convergence import compare_tracks
from repro.live.simref import run_sim_reference
from repro.live.workload import LiveWorkload
from repro.obs import scenarios
from tests.test_live_report import make_live_dir

#: Shrinks a traced companion from 6 hosts x 6 ms to eight snapshots
#: (fig08: twelve AIMD adjustments).
_TINY = {"num_hosts": 4, "duration_ms": 2.0, "warmup_ms": 0.1}


def _sha(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def sim_series(figure: str) -> Dict[str, Any]:
    """The full series document of a shrunk traced companion."""
    base = scenarios._BASE
    scenarios._BASE = replace(base, **_TINY)
    try:
        return scenarios.run_traced_figure(figure).series()
    finally:
        scenarios._BASE = base


def live_series(tmp_path: Path, with_metrics: bool) -> Dict[str, Any]:
    return load_live_run(make_live_dir(tmp_path, with_metrics))["series"]


def gate_report() -> str:
    workload = LiveWorkload(duration_s=8.0)
    tracks = run_sim_reference(workload)
    return compare_tracks(tracks, tracks, workload.duration_ns).report()


def _sim_pin(figure: str) -> str:
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "tests.test_series_pins", figure],
        cwd=root,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


PINS = {
    "sim_fig08": "7c835e1dbda2c2d585f90c3594a28eb73cf51b0e2bb7b5c2b157d5a9263b8f99",
    "sim_fig19": "356626fc5928f06b9f3fcaed77bf64a498429cc68d531ad7924ceaac211d1553",
    "live_with_metrics": "3c43cd94647aad66781e80cc38a14ab794147b8240dc4a1a550a17bc60233310",
    "live_without_metrics": "8c8d443339670afb1890452b886670e1263697023fc64dc31ec42276a6041d5e",
    "gate_report": "dacbbbb339f26fdd5b1b22d4eec68a2483c4c03721634213732cc78406463767",
}


@pytest.mark.parametrize("figure", ["fig08", "fig19"])
def test_sim_series_is_pinned(figure: str) -> None:
    assert _sim_pin(figure) == PINS[f"sim_{figure}"]


@pytest.mark.parametrize("with_metrics", [True, False])
def test_live_series_is_pinned(tmp_path: Path, with_metrics: bool) -> None:
    key = "live_with_metrics" if with_metrics else "live_without_metrics"
    assert _sha(live_series(tmp_path, with_metrics)) == PINS[key]


def test_gate_report_is_pinned() -> None:
    assert _sha(gate_report()) == PINS["gate_report"]


if __name__ == "__main__" and len(sys.argv) == 2:
    doc = sim_series(sys.argv[1])
    doc.pop("alerts", None)
    print(_sha(doc))
elif __name__ == "__main__":
    observed = {f"sim_{fig}": _sim_pin(fig) for fig in ("fig08", "fig19")}
    for with_metrics in (True, False):
        with tempfile.TemporaryDirectory() as tmp:
            key = "live_with_metrics" if with_metrics else "live_without_metrics"
            observed[key] = _sha(live_series(Path(tmp), with_metrics))
    observed["gate_report"] = _sha(gate_report())
    print("PINS =", json.dumps(observed, indent=4))
