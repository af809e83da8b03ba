"""Command-line entry point: regenerate any paper figure from a shell.

Usage::

    python -m repro list                 # show available experiments
    python -m repro fig12                # paper-profile sweep, print its table
    python -m repro fig11 --quick        # the fast profile instead
    python -m repro all --quick          # every figure

    python -m repro run fig11 --profile fast --workers 4
    python -m repro run fig11 --resume 20260806-101500-00042
    python -m repro run fig11 --trace    # per-point Chrome traces

    python -m repro trace fig08          # traced companion run + report
    python -m repro report RUN_ID        # HTML + text report of a run
    python -m repro report live-logs/    # same panels for a live run dir
    python -m repro report --diff A B    # behavioral cross-run diff
    python -m repro live --duration 10   # real processes over TCP
    python -m repro live --telemetry     # + /metrics endpoint, SLO alerts
    python -m repro lint src tests    # simlint static determinism checks

The bare form runs the figure's sweep inline (per-point seeds, like
``run``), prints ``driver.table(rows)`` and writes nothing.  The ``run``
subcommand goes through :mod:`repro.runner`: sweep points are sharded
across a worker pool, cached on disk, judged against the figure's
paper claims, and the rows land in ``results/<figure>/``.
The ``lint`` subcommand runs :mod:`repro.lint` (see
``docs/correctness.md`` for the rule catalogue).

Each experiment prints the same rows/series the paper reports; see
EXPERIMENTS.md for the paper-versus-measured record.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, Optional, Sequence

#: name -> one-line description.  Data only, so importing the CLI loads
#: no figure module; the name resolves to its driver through
#: ``repro.runner.registry`` (same keys, test-enforced) on dispatch.
_EXPERIMENTS: Dict[str, str] = {
    "fig08": "theoretical 2-QoS worst-case delay",
    "fig09": "fluid 3-QoS delay, weights 8:4:1 and 50:4:1",
    "fig10": "packet simulator vs theory",
    "fig11": "achieved RNL tracks the SLO (3-node)",
    "fig12": "cluster tails w/ vs w/o Aequitas",
    "fig13": "outstanding RPCs per switch port",
    "fig14": "baseline tail vs QoS_h-share",
    "fig15": "admitted QoS-mix vs input mix",
    "fig16": "admitted traffic vs burstiness (C/rho)",
    "fig17": "fairness across unequal channels",
    "fig18": "in-quota channel protection (max-min)",
    "fig19": "Aequitas vs strict priority queuing",
    "fig20": "mixed 32/64 KB RPC sizes",
    "fig21": "production sizes under extreme overload",
    "fig22": "comparison vs pFabric/QJump/D3/PDQ/Homa",
    "fig23": "simulated testbed deployment",
    "fig24": "Phase-1 rollout across a cluster ensemble",
    "fig28": "alpha/beta sensitivity (Appendix C)",
    "nqos": "five-QoS-level generalization",
}


def _run_main(argv: Sequence[str]) -> int:
    """The ``run`` subcommand: sweep a figure through repro.runner."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run a figure sweep through the orchestration layer.",
    )
    parser.add_argument(
        "experiment",
        help="figure name (same names as 'python -m repro list')",
    )
    parser.add_argument(
        "--profile",
        default="fast",
        help="parameter profile: 'fast' (CI-sized) or 'paper' (default: fast)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (default: 1, inline)",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_ID",
        default=None,
        help="reuse completed points from a previous run id",
    )
    parser.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="independent replicates per sweep point (default: 1)",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="root directory for run documents (default: results/)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="point cache directory (default: <results-dir>/_cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point, ignoring the on-disk cache",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record RPC-lifecycle traces per sweep point (writes Chrome "
        "trace + span JSONL under <results-dir>/<figure>/<run-id>-traces/; "
        "disables the point cache for the run)",
    )
    args = parser.parse_args(argv)

    from repro.runner import run_experiment

    try:
        report = run_experiment(
            args.experiment,
            profile=args.profile,
            workers=args.workers,
            resume=args.resume,
            results_dir=args.results_dir,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            replicates=args.replicates,
            trace=args.trace,
            log=print,
        )
    except (ValueError, FileNotFoundError) as exc:
        # Bad name, profile, --workers or --replicates (run_experiment
        # validates them all), or an unknown --resume id.
        print(str(exc), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1

    print(report.summary())
    return 0 if report.ok else 1


def _trace_main(argv: Sequence[str]) -> int:
    """The ``trace`` subcommand: one traced companion run of a figure."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run a figure's traced companion simulation with the "
        "full observability stack (RPC spans, queue residency, sim-time "
        "profile) and export a Perfetto-loadable Chrome trace.",
    )
    parser.add_argument(
        "experiment",
        help="figure name (same names as 'python -m repro list')",
    )
    parser.add_argument(
        "--profile",
        default="fast",
        choices=("fast", "paper"),
        help="scenario size: 'fast' (CI-sized) or 'paper' (3x horizon)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the traced run's seed",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="root directory for run artifacts, shared with 'run' "
        "(default: results/); traces land under <results-dir>/traces/"
        "<figure>/",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="explicit output directory root (overrides --results-dir; "
        "artifacts land under <out>/<figure>/)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=5,
        help="top-K entries per section of the text report (default: 5)",
    )
    parser.add_argument(
        "--top-k",
        type=int,
        default=5,
        help="bound on exemplar rows in the attribution waterfall "
        "(default: 5; keeps paper-profile sweeps readable)",
    )
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.analysis.attribution import attribute_tracer, attribution_report
    from repro.obs.export import (
        trace_report,
        write_chrome_trace,
        write_jsonl,
        write_metrics_series,
    )
    from repro.obs.scenarios import run_traced_figure
    from repro.runner.registry import UnknownExperimentError

    try:
        traced = run_traced_figure(
            args.experiment, profile=args.profile, seed=args.seed
        )
    except UnknownExperimentError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    # Same layout convention as 'run': everything roots at --results-dir
    # unless an explicit --out is given.  See docs/observability.md
    # ("Where artifacts land").
    root = Path(args.out) if args.out else Path(args.results_dir) / "traces"
    outdir = root / args.experiment
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.experiment}-{args.profile}"
    chrome_path = outdir / f"{stem}.trace.json"
    write_chrome_trace(chrome_path, traced.tracer, traced.registry)
    write_jsonl(outdir / f"{stem}.spans.jsonl", traced.tracer)
    write_metrics_series(outdir / f"{stem}.metrics.jsonl", traced.registry)
    series_path = outdir / f"{stem}.series.json"
    import json as _json

    with open(series_path, "w") as fh:
        _json.dump(traced.series(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"== trace {args.experiment} ({args.profile}, seed {traced.cfg.seed}) ==")
    print(trace_report(traced.tracer, traced.profiler, top_k=args.top))
    print()
    print(attribution_report(attribute_tracer(traced.tracer), top_k=args.top_k))
    print(f"chrome trace: {chrome_path} (load at https://ui.perfetto.dev)")
    print(f"span log:     {outdir / (stem + '.spans.jsonl')}")
    print(f"metric series: {outdir / (stem + '.metrics.jsonl')}")
    print(f"analysis series: {series_path}")
    return 0


def _report_main(argv: Sequence[str]) -> int:
    """The ``report`` subcommand: render or diff stored run documents."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Render a stored sweep run as a self-contained HTML + "
        "text report (convergence, SLO compliance, queue residency), or "
        "diff two runs behaviorally with thresholds for CI gating.",
    )
    parser.add_argument(
        "run",
        nargs="*",
        help="run id to report on (searched across <results-dir>/*/) or a "
        "live run's log directory, or with --diff: two runs — each a "
        "run id, a live log directory, or a path to a summary JSON "
        "written by --emit-summary",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="compare two runs point-by-point and QoS-by-QoS; exits 1 "
        "when any threshold is breached",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="root directory of stored run documents (default: results/)",
    )
    parser.add_argument(
        "--html",
        metavar="PATH",
        default=None,
        help="write the HTML report here (default: <results-dir>/"
        "<experiment>/<run_id>.report.html)",
    )
    parser.add_argument(
        "--no-html",
        action="store_true",
        help="skip the HTML report (text only)",
    )
    parser.add_argument(
        "--emit-summary",
        metavar="PATH",
        default=None,
        help="also write the compact machine-readable summary JSON "
        "(commit one as the golden for CI report-diff)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=5,
        help="top-K queue-residency contributors in the text report",
    )
    parser.add_argument(
        "--max-row-delta",
        type=float,
        default=0.05,
        help="diff: max relative delta of any numeric row field (default: 0.05)",
    )
    parser.add_argument(
        "--row-abs-floor",
        type=float,
        default=0.0,
        help="diff: ignore row-field deltas at or below this absolute "
        "size — keeps small noisy counts from tripping the relative "
        "gate (default: 0)",
    )
    parser.add_argument(
        "--max-p-admit-delta",
        type=float,
        default=0.05,
        help="diff: max absolute settled-p_admit delta per QoS (default: 0.05)",
    )
    parser.add_argument(
        "--max-slo-miss-delta",
        type=float,
        default=0.02,
        help="diff: max absolute SLO-miss-rate delta per QoS (default: 0.02)",
    )
    parser.add_argument(
        "--max-convergence-delta-ms",
        type=float,
        default=2.0,
        help="diff: max convergence-time delta in ms per QoS (default: 2.0)",
    )
    parser.add_argument(
        "--max-attribution-shift",
        type=float,
        default=0.10,
        help="diff: max absolute shift of any per-QoS attribution "
        "segment share (default: 0.10) — catches regressions that "
        "move latency between segments while total RNL stays flat",
    )
    args = parser.parse_args(argv)

    from pathlib import Path

    from repro.analysis.report import (
        DiffThresholds,
        diff_summaries,
        is_live_run_dir,
        load_live_run,
        load_summary,
        render_html,
        render_text,
        summarize,
        write_summary,
    )
    from repro.runner.store import ResultStore

    store = ResultStore(args.results_dir)

    def _doc_of(ref: str) -> Dict[str, Any]:
        """A run id or a live run's log directory."""
        if is_live_run_dir(ref):
            return load_live_run(ref)
        return store.find(ref)

    def _summary_of(ref: str) -> Dict[str, Any]:
        """A run id, a live log directory, or an --emit-summary JSON."""
        if ref.endswith(".json") and Path(ref).is_file():
            return load_summary(ref)
        return summarize(_doc_of(ref))

    if args.diff:
        if len(args.run) != 2:
            print("--diff needs exactly two runs (baseline, candidate)",
                  file=sys.stderr)
            return 2
        try:
            baseline = _summary_of(args.run[0])
            candidate = _summary_of(args.run[1])
        except (FileNotFoundError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        result = diff_summaries(
            baseline,
            candidate,
            DiffThresholds(
                max_row_rel_delta=args.max_row_delta,
                row_abs_floor=args.row_abs_floor,
                max_p_admit_delta=args.max_p_admit_delta,
                max_slo_miss_delta=args.max_slo_miss_delta,
                max_convergence_delta_ms=args.max_convergence_delta_ms,
                max_attribution_shift=args.max_attribution_shift,
            ),
        )
        print(result.report())
        return 0 if result.ok else 1

    if len(args.run) != 1:
        print("need exactly one run id (or --diff with two)", file=sys.stderr)
        return 2
    try:
        doc = _doc_of(args.run[0])
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2

    print(render_text(doc, top_k=args.top))
    if not args.no_html:
        if args.html:
            html_path = Path(args.html)
        elif is_live_run_dir(args.run[0]):
            # Live runs self-contain: the report lands in the log dir.
            html_path = Path(args.run[0]) / "report.html"
        else:
            html_path = store.path(doc["experiment"], doc["run_id"]).with_suffix(
                ".report.html"
            )
        html_path.parent.mkdir(parents=True, exist_ok=True)
        html_path.write_text(render_html(doc))
        print(f"\nhtml report: {html_path}")
    if args.emit_summary:
        path = write_summary(args.emit_summary, summarize(doc))
        print(f"summary json: {path}")
    return 0


def _live_main(argv: Sequence[str]) -> int:
    """The ``live`` subcommand: real processes over TCP, optionally
    gated against the simulator reference."""
    parser = argparse.ArgumentParser(
        prog="repro live",
        description="Run the admission stack live: one server process and "
        "N client processes exchanging length-prefixed RPCs over TCP, "
        "with per-channel AIMD admission on every client. Optionally "
        "check the run's settled p_admit against the same workload in "
        "the simulator (--check-convergence).",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=10.0,
        help="run length in seconds (default: 10)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="workload seed shared by live run and sim reference (default: 7)",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=3,
        help="number of client processes (default: 3)",
    )
    parser.add_argument(
        "--overload",
        type=float,
        default=1.8,
        help="offered SLO-class load / server capacity (default: 1.8)",
    )
    parser.add_argument(
        "--log-dir",
        default="live-logs",
        help="directory for per-process JSONL event logs (default: live-logs/)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="server port (default: 0, ephemeral)",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="arm the live telemetry plane: per-process metrics snapshot "
        "logs, SLO burn-rate alerts, and an OpenMetrics /metrics "
        "endpoint on the server process",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=0,
        help="scrape endpoint port, implies --telemetry (default: 0, "
        "ephemeral; the chosen port is printed at startup)",
    )
    parser.add_argument(
        "--sample-interval-ms",
        type=float,
        default=250.0,
        help="telemetry snapshot cadence in milliseconds (default: 250)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="arm causal tracing: clients propagate W3C-style trace "
        "contexts over the wire so client- and server-side events "
        "join into one trace per RPC (off: event streams are "
        "byte-identical to an untraced run)",
    )
    parser.add_argument(
        "--check-convergence",
        action="store_true",
        help="also run the workload in the simulator and require the "
        "settled per-QoS p_admit to agree within --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="absolute settled-p_admit tolerance for --check-convergence "
        "(default: 0.2)",
    )
    args = parser.parse_args(argv)

    from repro.live.convergence import compare_tracks, tracks_from_logs
    from repro.live.runtime import run_live
    from repro.live.simref import run_sim_reference
    from repro.live.telemetry import TelemetryConfig
    from repro.live.workload import LiveWorkload

    try:
        workload = LiveWorkload(
            clients=args.clients,
            duration_s=args.duration,
            seed=args.seed,
            overload_factor=args.overload,
        )
        telemetry = None
        if args.telemetry or args.metrics_port:
            telemetry = TelemetryConfig(
                metrics_port=args.metrics_port,
                sample_interval_ns=int(args.sample_interval_ms * 1e6),
            )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    result = run_live(
        workload,
        args.log_dir,
        port=args.port,
        log=print,
        telemetry=telemetry,
        trace=args.trace,
    )
    for stats in result.client_stats:
        print(
            f"client {stats['client']}: {stats['calls']} calls, "
            f"{stats['completed']} completed, {stats['rejected']} rejected, "
            f"{stats['failures']} failed"
        )
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
    if not result.ok:
        return 1

    if args.check_convergence:
        live_tracks = tracks_from_logs(result.client_logs)
        sim_tracks = run_sim_reference(workload)
        verdict = compare_tracks(
            sim_tracks,
            live_tracks,
            workload.duration_ns,
            tolerance=args.tolerance,
        )
        print(verdict.report())
        if not verdict.ok:
            return 1
    print(f"live run ok (logs in {args.log_dir}/)")
    return 0


#: Exit status when the reader of stdout went away: the shell's own
#: 128 + SIGPIPE, and never 1, which means "failed" / "threshold breached".
EXIT_STDOUT_CLOSED = 141


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        status = _dispatch(argv)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # ``repro report --diff A B | head -1``: nobody is reading any
        # more.  Point stdout at the null device so the interpreter's
        # exit-time flush cannot raise the same error again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "run":
        return _run_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "report":
        return _report_main(argv[1:])
    if argv and argv[0] == "live":
        return _live_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.lint.runner import main as lint_main

        return lint_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate Aequitas (SIGCOMM 2022) evaluation figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name (see 'list'), 'all', 'list', or the 'run' / "
        "'trace' / 'report' / 'live' / 'lint' subcommands ('python -m "
        "repro run <figure> --help', 'python -m repro trace <figure> "
        "--help', 'python -m repro report --help', 'python -m repro live "
        "--help', 'python -m repro lint --help')",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="the 'fast' profile's sweep instead of the 'paper' one",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        width = max(len(name) for name in _EXPERIMENTS)
        for name, desc in _EXPERIMENTS.items():
            print(f"{name:<{width}}  {desc}")
        return 0

    names = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use 'list' to see what is available", file=sys.stderr)
        return 2

    from repro.runner.registry import driver_for

    profile = "fast" if args.quick else "paper"
    for name in names:
        driver = driver_for(name)
        print(f"== {name}: {_EXPERIMENTS[name]} ==")
        # perf_counter, not time(): monotonic, so a wall-clock step
        # (NTP, suspend) can never print a negative figure duration.
        start = time.perf_counter()
        rows = [driver.run_point(p, p.seed) for p in driver.sweep(profile)]
        print(driver.table(rows))
        print(f"[{time.perf_counter() - start:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
