"""Tests for the command-line figure runner."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _EXPERIMENTS, EXIT_STDOUT_CLOSED, main

_ROOT = Path(__file__).resolve().parents[1]

#: ``python -m repro list``, byte for byte.
_LIST_GOLDEN = """\
fig08  theoretical 2-QoS worst-case delay
fig09  fluid 3-QoS delay, weights 8:4:1 and 50:4:1
fig10  packet simulator vs theory
fig11  achieved RNL tracks the SLO (3-node)
fig12  cluster tails w/ vs w/o Aequitas
fig13  outstanding RPCs per switch port
fig14  baseline tail vs QoS_h-share
fig15  admitted QoS-mix vs input mix
fig16  admitted traffic vs burstiness (C/rho)
fig17  fairness across unequal channels
fig18  in-quota channel protection (max-min)
fig19  Aequitas vs strict priority queuing
fig20  mixed 32/64 KB RPC sizes
fig21  production sizes under extreme overload
fig22  comparison vs pFabric/QJump/D3/PDQ/Homa
fig23  simulated testbed deployment
fig24  Phase-1 rollout across a cluster ensemble
fig28  alpha/beta sensitivity (Appendix C)
nqos   five-QoS-level generalization
"""

#: SHA-256 of ``python -m repro <figure> [--quick]`` minus its timing line.
_TABLE_GOLDEN = {
    ("fig08",): "f01bbb2957f00f53af82940a96886b1ffa1b45ee18de76bcc3a50c6bfad2e062",
    ("fig08", "--quick"): "8abf6abf58f3a6f897aceaaaf03a20d5e9ccf35335df15050ca588dabc4d8c08",
    ("fig09",): "fdda6cd9b95e2eb9df0a3164093e38758b325c5917ac5d086867b50e23e2306d",
    ("fig10", "--quick"): "4de08fe4b6db3ab389d24b61de989d50f8d686bfd03c95e6dad870d6283f65db",
}


def test_list_output_matches_golden(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out == _LIST_GOLDEN


def test_figure_tables_match_golden(capsys):
    for argv, sha in _TABLE_GOLDEN.items():
        assert main(list(argv)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("[") and lines[-2].endswith("s]")
        text = "\n".join(lines[:-2])
        assert hashlib.sha256(text.encode()).hexdigest() == sha, argv


def test_cli_table_and_runner_registry_name_the_same_figures():
    from repro.runner.registry import FIGURE_MODULES

    assert set(_EXPERIMENTS) == set(FIGURE_MODULES)


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in _EXPERIMENTS:
        assert name in out


def test_unknown_experiment_errors(capsys):
    assert main(["nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_quick_run_fig08(capsys):
    assert main(["fig08", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Fig 8" in out
    assert "priority inversion" in out


def test_quick_run_fig09(capsys):
    assert main(["fig09", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "(8, 4, 1)" in out and "(50, 4, 1)" in out


def test_every_experiment_registered_with_description():
    for name, desc in _EXPERIMENTS.items():
        assert isinstance(desc, str) and desc, name


def test_registry_covers_every_figure_module():
    expected = {f"fig{n:02d}" for n in (8, 9, 10, 11, 12, 13, 14, 15, 16,
                                        17, 18, 19, 20, 21, 22, 23, 24)}
    expected |= {"fig28", "nqos"}
    assert set(_EXPERIMENTS) == expected


# ----------------------------------------------------------------------
# The run subcommand
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flag", ["--workers", "--replicates"])
def test_run_rejects_a_zero_count_with_one_line(flag, tmp_path, capsys):
    """A bad count is a usage error: exit 2 and one line on stderr, never
    exit 1 (shape checks failed) or a traceback."""
    code = main(["run", "fig08", flag, "0", "--results-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and flag.lstrip("-") in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["trace", "fig08", "--top", "-1", "--results-dir"], "--top"),
        (["trace", "fig08", "--top-k", "-1", "--results-dir"], "--top-k"),
        (["report", "any-run", "--top", "-1", "--results-dir"], "--top"),
        (["live", "--check-convergence", "--tolerance", "-1", "--log-dir"],
         "--tolerance"),
    ],
)
def test_negative_count_is_a_usage_error(argv, flag, tmp_path, capsys):
    """A negative list length or tolerance is rejected before any work:
    ``--top -1`` used to slice off the last queue and ``--tolerance -1``
    failed every live run."""
    code = main(argv + [str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"{flag} must be >= 0") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


# ----------------------------------------------------------------------
# The report subcommand
# ----------------------------------------------------------------------
def _stored_run(tmp_path, **doc_kwargs):
    from repro.runner.store import ResultStore

    from tests.test_analysis_report import make_doc

    doc = make_doc(**doc_kwargs)
    root = tmp_path / "results"
    ResultStore(root).write(doc)
    return root, doc


def test_report_renders_text_html_and_summary(tmp_path, capsys):
    root, doc = _stored_run(tmp_path)
    summary_path = tmp_path / "summary.json"
    assert main([
        "report", doc["run_id"],
        "--results-dir", str(root),
        "--emit-summary", str(summary_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "run r1" in out and "p_admit convergence" in out

    html_path = root / doc["experiment"] / f"{doc['run_id']}.report.html"
    assert html_path.is_file()
    assert "<svg" in html_path.read_text()

    from repro.analysis.report import load_summary

    assert load_summary(summary_path)["run_id"] == doc["run_id"]


def test_report_no_html_skips_the_page(tmp_path, capsys):
    root, doc = _stored_run(tmp_path)
    assert main([
        "report", doc["run_id"], "--results-dir", str(root), "--no-html",
    ]) == 0
    capsys.readouterr()
    assert not (root / doc["experiment"] / f"{doc['run_id']}.report.html").exists()


def test_report_unknown_run_errors(tmp_path, capsys):
    assert main(["report", "nope", "--results-dir", str(tmp_path)]) == 2
    assert "no stored run" in capsys.readouterr().err


def _summary_file(tmp_path, name, **doc_kwargs):
    from repro.analysis.report import summarize, write_summary

    from tests.test_analysis_report import make_doc

    return str(write_summary(tmp_path / name, summarize(make_doc(**doc_kwargs))))


def test_report_diff_exit_codes(tmp_path, capsys):
    golden = _summary_file(tmp_path, "golden.json")
    same = _summary_file(tmp_path, "same.json", run_id="r2")
    assert main(["report", "--diff", golden, same]) == 0
    assert "no threshold breaches" in capsys.readouterr().out

    # An injected SLO-miss regression must fail the gate.
    regressed = _summary_file(tmp_path, "regressed.json", miss0=0.12)
    assert main(["report", "--diff", golden, regressed]) == 1
    assert "BREACH" in capsys.readouterr().out

    # ...unless the threshold is explicitly widened.
    assert main([
        "report", "--diff", golden, regressed, "--max-slo-miss-delta", "0.5",
    ]) == 0
    capsys.readouterr()


def _spawn_cli(args, stdout):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        cwd=_ROOT,
    )


_GOLDEN_SUMMARY = "ci/fig08-fast.golden.json"
_PIPED_COMMANDS = {
    "list": ["list"],
    "report-diff": ["report", "--diff", _GOLDEN_SUMMARY, _GOLDEN_SUMMARY],
}


@pytest.mark.parametrize("command", sorted(_PIPED_COMMANDS))
def test_closed_stdout_is_not_a_traceback_nor_a_breach(command):
    """``repro ... | head -1``: once the reader is gone the CLI stops
    quietly, with a status that is neither success nor 1 ("threshold
    breached").  The read end is closed before the child can write, so
    every write meets the closed pipe whatever the scheduling."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _spawn_cli(_PIPED_COMMANDS[command], stdout=write_end)
    finally:
        os.close(write_end)
    _, stderr = child.communicate(timeout=60)
    assert child.returncode == EXIT_STDOUT_CLOSED, stderr.decode()
    assert stderr == b""


@pytest.mark.parametrize("command", sorted(_PIPED_COMMANDS))
def test_reader_leaving_after_one_line(command):
    """The same through a real pipe, as ``head -1`` does it: read one
    line, close.  Whether the child had already written everything is a
    race, so both outcomes are legal — a traceback never is."""
    child = _spawn_cli(_PIPED_COMMANDS[command], stdout=subprocess.PIPE)
    first = child.stdout.readline()
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) in (0, EXIT_STDOUT_CLOSED)
    assert first and stderr == b""


def test_report_diff_needs_two_runs(tmp_path, capsys):
    golden = _summary_file(tmp_path, "golden.json")
    assert main(["report", "--diff", golden]) == 2
    assert "exactly two" in capsys.readouterr().err
    assert main(["report"]) == 2
    assert "exactly one" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The live subcommand
# ----------------------------------------------------------------------
def test_live_rejects_invalid_workload(tmp_path, capsys):
    code = main(["live", "--duration", "-1", "--log-dir", str(tmp_path)])
    assert code == 2
    assert "duration" in capsys.readouterr().err


def test_live_short_run_exits_clean(tmp_path, capsys):
    code = main([
        "live", "--duration", "1", "--seed", "11", "--clients", "2",
        "--log-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "server listening" in out
    assert "client 0:" in out and "client 1:" in out
    assert "live run ok" in out
    assert (tmp_path / "server.jsonl").exists()
    assert (tmp_path / "c0.jsonl").exists()
    # Telemetry off: no metrics sidecars, no endpoint line.
    assert not list(tmp_path.glob("metrics-*.jsonl"))
    assert "metrics endpoint" not in out


def test_live_telemetry_run_then_report_on_dir(tmp_path, capsys):
    log_dir = tmp_path / "logs"
    code = main([
        "live", "--duration", "1", "--seed", "11", "--clients", "2",
        "--telemetry", "--log-dir", str(log_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "metrics endpoint on http://" in out
    assert (log_dir / "metrics-server.jsonl").exists()
    assert (log_dir / "metrics-c0.jsonl").exists()

    assert main(["report", str(log_dir), "--no-html"]) == 0
    report_out = capsys.readouterr().out
    assert "p_admit convergence" in report_out
    assert "digest n/a (live)" in report_out
