"""A ``--seconds 2`` run of every workload, traced and untraced, through
the entry point exactly as the driver invokes it."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.ledger import catalog, schema
from conftest import ROOT

ENTRY = list(catalog.COMMAND[1:])


def _run(cwd, workload, trace, extra=()):
    return subprocess.run(
        [sys.executable, *ENTRY, "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_smoke(workload, trace, tmp_path):
    scratch = tmp_path / "scratch"
    done = _run(ROOT, workload, trace, ["--scratch", str(scratch)])
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert schema.validate_result(result, bool(trace)) == []
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        return
    shares = {k: v for k, v in metrics.items() if k.endswith(".self_share")}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    assert metrics["host.reps"] >= 5
    spans = json.loads((scratch / "trace.json").read_text())["spans"]
    assert {"unit"} <= {s["name"] for s in spans}
    assert all(s["end"] >= s["start"] for s in spans)
    live = [k for k in shares if k.startswith(("live.", "loop."))]
    sim = ["sim.self_share", "net.self_share", "transport.self_share", "rpc.self_share"]
    if workload.startswith("sim_"):
        assert all(shares[k] == 0.0 for k in live)
        assert metrics["sim.events_per_work"] > 0
    if workload == "live_closed_8x1k":
        assert sum(shares[k] for k in sim) < 0.05
        assert metrics["live.events.records_per_call"] == 2.0
    if workload == "sweep_fast_trio":
        assert shares["runner.self_share"] > 0 and shares["experiments.self_share"] > 0


def test_scratch_goes_to_the_temp_dir_and_is_deleted(tmp_path):
    temp = tmp_path / "tmp"
    temp.mkdir()
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    done = subprocess.run(
        [sys.executable, str(ROOT / ENTRY[0]), "--workload", "sweep_fast_trio", "--seed", "3",
         "--seconds", "2", "--trace", "0"],
        cwd=cwd, env={**os.environ, "TMPDIR": str(temp)},
        capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    assert list(temp.iterdir()) == [] and list(cwd.iterdir()) == []


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(tmp_path, "sim_incast_32k", 0)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
