"""The study behind ``NOISE.md``: how far do the estimators repeat?

Not part of the ledger's command line — a loop over it, and a table.
From the repo root::

    python3 -m benchmarks.ledger.noise_study run noise_a.json 1 10
    python3 -m benchmarks.ledger.noise_study run noise_b.json 1 10
    python3 -m benchmarks.ledger.noise_study table noise_a.json noise_b.json

``run OUT FIRST LAST`` makes one untraced pass over the four workloads
per seed FIRST..LAST (so workloads alternate) and writes them as one
ledger file.  Two sets share their seeds so that what differs between
them is the host alone, and ``compare``'s exact-counter check has
something to check.  ``table`` pools the given files and prints, for
every (workload, end-to-end metric), range / median and quartile spread
of the quiet estimator *and* of the raw figure a plain stopwatch would
have printed in the same runs (whole-run rate; first set-up child),
each file's own spread, and ``2 x quartile spread`` next to the
catalogue's bound; it also writes the numbers to ``noise.json`` beside
this file.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

from benchmarks.ledger import catalog, cli
from benchmarks.ledger.compare import load, values_of
from benchmarks.ledger.estimator import quartile_spread, range_share

#: Where an untraced run's info keeps the un-robustified figure.
_RAW_KEY = {"work_per_sec": "host.raw_work_per_sec", "setup_s": "setup_first_child_s"}


def run(output: str, first_seed: int, last_seed: int) -> int:
    runs: List[Dict[str, Any]] = []
    any_failed = False
    for seed in range(first_seed, last_seed + 1):
        done, failed = cli.run_pass(seed, float(catalog.RUN_SECONDS), (0,))
        runs += done
        any_failed |= failed
        cli.write_ledger(output, float(catalog.RUN_SECONDS), runs)
    return 1 if any_failed else 0


def summarise(documents: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows = []
    for workload in catalog.WORKLOAD_NAMES:
        runs = [
            run for document in documents for run in document["runs"]
            if run["workload"] == workload and run["trace"] == 0
        ]
        if not runs:
            continue
        for metric in catalog.END_TO_END:
            per_file = [values_of(d, workload, metric.name) for d in documents]
            values = [v for file_values in per_file for v in file_values]
            row: Dict[str, Any] = {
                "workload": workload,
                "metric": metric.name,
                "unit": metric.unit,
                "runs": len(values),
                "median": statistics.median(values),
                "range": range_share(values),
                "iqr": quartile_spread(values),
                "iqr_per_file": [quartile_spread(v) for v in per_file],
                "bound": metric.bound,
                "min_quiet_share": min(run["info"]["host.quiet_share"] for run in runs),
                "max_steal_share": max(run["info"]["host.steal_share"] for run in runs),
                "values": values,
            }
            raw_key = _RAW_KEY.get(metric.name)
            if raw_key is not None:
                raw = [run["info"][raw_key] for run in runs]
                row.update(raw_range=range_share(raw), raw_iqr=quartile_spread(raw), raw_values=raw)
            rows.append(row)
    return rows


def markdown(rows: List[Dict[str, Any]]) -> str:
    lines = [
        "| workload | metric | runs | median | range | IQR | IQR per set | raw range | raw IQR | "
        "2 x IQR | bound |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        raw = (
            f"{row['raw_range']:.1%} | {row['raw_iqr']:.1%}" if "raw_range" in row else "- | -"
        )
        per_file = " / ".join(f"{spread:.1%}" for spread in row["iqr_per_file"])
        lines.append(
            f"| `{row['workload']}` | `{row['metric']}` | {row['runs']} | "
            f"{row['median']:.5g} {row['unit']} | {row['range']:.1%} | {row['iqr']:.1%} | "
            f"{per_file} | {raw} | {2 * row['iqr']:.3f} | {row['bound']:.2f} |"
        )
    return "\n".join(lines)


def runs_markdown(paths: List[str], documents: List[Dict[str, Any]]) -> str:
    lines = [
        "| set | workload | seed | setup_s | work_per_sec | peak_rss_mb | reps | quiet share | "
        "steal share | raw work/s | first child s | wall s |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for path, document in zip(paths, documents):
        for run in document["runs"]:
            if run["trace"] != 0:
                continue
            metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            info = run["info"]
            lines.append(
                f"| {Path(path).stem} | `{run['workload']}` | {run['seed']} | "
                f"{metrics['setup_s']:.4f} | {metrics['work_per_sec']:.5g} | "
                f"{metrics['peak_rss_mb']:.2f} | {info['host.reps']:.0f} | "
                f"{info['host.quiet_share']:.2f} | {info['host.steal_share']:.3f} | "
                f"{info['host.raw_work_per_sec']:.5g} | "
                f"{info['setup_first_child_s']:.4f} | {run['wall_s']:.1f} |"
            )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) == 4 and argv[0] == "run":
        return run(argv[1], int(argv[2]), int(argv[3]))
    if len(argv) >= 2 and argv[0] == "table":
        documents = [load(path) for path in argv[1:]]
        rows = summarise(documents)
        print(markdown(rows))
        print()
        print(runs_markdown(argv[1:], documents))
        with open(Path(__file__).with_name("noise.json"), "w") as fh:
            json.dump({"ledgers": [Path(p).name for p in argv[1:]], "rows": rows}, fh, indent=1)
            fh.write("\n")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
