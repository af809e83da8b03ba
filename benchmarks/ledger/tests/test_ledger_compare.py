"""``compare``: statuses, exit code, exact differences; and the noise
study's table over the same ledger files."""

import json

import pytest

from benchmarks.ledger import catalog, compare, noise_study


def _ledger(work, seeds=None, exact=None, traced_events=None):
    runs = []
    for index, value in enumerate(work):
        seed = (seeds or range(len(work)))[index]
        for workload in catalog.WORKLOAD_NAMES:
            runs.append(
                {
                    "workload": workload, "seed": seed, "trace": 0,
                    "result": {"metrics": {
                        "setup_s": {"value": 0.25, "unit": "s"},
                        "work_per_sec": {"value": value, "unit": "1/s"},
                        "peak_rss_mb": {"value": 50.0, "unit": "MiB"},
                    }},
                    "info": {
                        "exact": exact or {"digest_hex": "abc"},
                        "host.quiet_share": 0.4, "host.steal_share": 0.0,
                        "host.raw_work_per_sec": value / 2,
                        "setup_first_child_s": 0.3,
                    },
                }
            )
            if traced_events is not None:
                metrics = {m.name: {"value": 0.0, "unit": m.unit} for m in catalog.PER_LAYER}
                metrics["sim.events_per_work"]["value"] = traced_events
                runs.append(
                    {"workload": workload, "seed": seed, "trace": 1,
                     "result": {"metrics": metrics}, "info": {}}
                )
    return {"schema": "ledger/1", "seconds": 30, "runs": runs}


WORK_PER_SEC = next(m for m in catalog.END_TO_END if m.name == "work_per_sec")
BOUND = WORK_PER_SEC.bound
STEADY = [100, 101, 99, 100, 102]


def _scaled(values, factor):
    return [v * factor for v in values]


def _run(tmp_path, capsys, a, b):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    code = compare.main([str(pa), str(pb)])
    return code, capsys.readouterr().out


def test_same_numbers_are_unchanged(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, _ledger(STEADY), _ledger(STEADY))
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith(("setup_s", "work_", "peak_"))]
    assert len(rows) == len(catalog.END_TO_END) * len(catalog.WORKLOADS)
    assert all("unchanged" in row for row in rows)
    assert "identical" in out


def test_median_worse_than_bound_is_regressed_and_exits_1(tmp_path, capsys):
    worse = _scaled(STEADY, 1 - BOUND - 0.05)
    code, out = _run(tmp_path, capsys, _ledger(STEADY), _ledger(worse))
    assert code == 1
    assert out.count("regressed") == len(catalog.WORKLOADS)  # work_per_sec rows only


def test_wide_spread_is_unresolved_not_unchanged(tmp_path, capsys):
    noisy = [100, 100 * (1 + 2 * BOUND), 100 * (1 - BOUND), 100 * (1 + BOUND), 95]
    code, out = _run(tmp_path, capsys, _ledger(STEADY), _ledger(noisy))
    assert code == 0
    assert out.count("unresolved") == len(catalog.WORKLOADS)


def test_wide_spread_but_every_run_better_is_unchanged():
    status, worse_by = compare.judge(WORK_PER_SEC, STEADY, [150, 200, 160, 260, 155])
    assert status == "unchanged" and worse_by < 0


def test_exact_counters_and_digests_that_differ_are_listed(tmp_path, capsys):
    a = _ledger([100] * 5, exact={"digest_hex": "abc", "events": 7}, traced_events=16000.0)
    b = _ledger([100] * 5, exact={"digest_hex": "abd", "events": 7}, traced_events=15500.0)
    code, out = _run(tmp_path, capsys, a, b)
    assert code == 0
    assert "exact.digest_hex: 'abc' -> 'abd'" in out
    assert "sim.events_per_work: 16000.0 -> 15500.0" in out
    assert "exact.events" not in out


def test_call_counts_are_exact_only_on_bitwise_workloads(tmp_path, capsys):
    a, b = _ledger([100] * 5, traced_events=1.0), _ledger([100] * 5, traced_events=1.0)
    for run in b["runs"]:
        if run["trace"] == 1:
            run["result"]["metrics"]["core.calls_per_work"]["value"] = 19.0023
    _code, out = _run(tmp_path, capsys, a, b)
    assert "sim_incast_32k seed=0 core.calls_per_work" in out
    assert "sweep_fast_trio seed=0 core.calls_per_work" in out
    assert "live_closed_8x1k seed=0 core.calls_per_work" not in out


def test_noise_table_pools_files_and_keeps_each_files_spread():
    rows = noise_study.summarise([_ledger(STEADY), _ledger(_scaled(STEADY, 1.1))])
    assert len(rows) == len(catalog.END_TO_END) * len(catalog.WORKLOADS)
    row = next(r for r in rows if r["metric"] == "work_per_sec")
    assert row["runs"] == 10
    assert row["iqr_per_file"] == [pytest.approx(0.02), pytest.approx(0.02)]
    assert row["iqr"] > 0.08  # the two files sit 10 % apart
    assert row["raw_iqr"] == pytest.approx(row["iqr"])
    assert "| `sim_incast_32k` | `work_per_sec` | 10 |" in noise_study.markdown(rows)
