"""Unit tests for the sweep orchestration layer (repro.runner).

The experiment under test throughout is fig08 — its points are
analytic (no packet simulation), so whole sweeps run in milliseconds
and the worker-pool / cache / resume behaviors stay cheap to exercise.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.runner import (
    Point,
    ResultCache,
    ResultStore,
    UnknownExperimentError,
    UnknownProfileError,
    code_version,
    run_experiment,
)
from repro.runner.registry import driver_for


def test_point_seed_is_deterministic_and_identity_sensitive():
    a = Point("fig08", {"share": 0.5})
    b = Point("fig08", {"share": 0.5})
    c = Point("fig08", {"share": 0.6})
    d = Point("fig08", {"share": 0.5}, replicate=1)
    assert a.seed == b.seed
    assert a.seed != c.seed
    assert a.seed != d.seed
    assert 1 <= a.seed < 2**31


def test_point_params_must_be_json_serializable():
    with pytest.raises(TypeError):
        Point("fig08", {"bad": object()})


def test_cache_hit_miss_and_invalidation(tmp_path):
    cache = ResultCache(tmp_path)
    ver = code_version()
    point = Point("fig08", {"share": 0.5})
    assert cache.get(point, ver) is None  # cold miss
    cache.put(point, ver, {"delay": 1.0})
    assert cache.get(point, ver) == {"delay": 1.0}  # hit
    moved = Point("fig08", {"share": 0.75})
    assert cache.get(moved, ver) is None  # param change misses
    assert cache.get(point, "deadbeef") is None  # code change misses
    assert cache.hits == 1
    assert cache.misses == 3


def test_store_roundtrip_and_missing_run(tmp_path):
    store = ResultStore(tmp_path)
    doc = {"experiment": "fig08", "run_id": "r1", "points": []}
    path = store.write(doc)
    assert path.exists()
    assert store.load("fig08", "r1") == doc
    assert store.list_runs("fig08") == ["r1"]
    assert store.latest_run_id("fig08") == "r1"
    with pytest.raises(FileNotFoundError):
        store.load("fig08", "r2")


def test_registry_rejects_unknown_names():
    with pytest.raises(UnknownExperimentError):
        driver_for("fig99")
    with pytest.raises(UnknownProfileError):
        run_experiment("fig08", profile="warp")


def test_all_registered_drivers_expose_the_sweep_interface():
    from repro.runner.registry import available_experiments

    for name in available_experiments():
        driver = driver_for(name)
        for profile in driver.PROFILES:
            points = driver.sweep(profile)
            assert points, f"{name}/{profile}: empty sweep"
            assert all(p.experiment == name for p in points)


def test_second_run_is_served_from_cache(tmp_path):
    kwargs = dict(
        profile="fast",
        results_dir=tmp_path / "results",
        cache_dir=tmp_path / "cache",
    )
    first = run_experiment("fig08", **kwargs)
    second = run_experiment("fig08", **kwargs)
    assert first.computed == len(first.rows) > 0
    assert second.computed == 0
    assert second.cached == len(second.rows)
    assert second.digest_hex == first.digest_hex
    assert second.rows == first.rows


def test_resume_recomputes_zero_points(tmp_path):
    kwargs = dict(
        profile="fast",
        use_cache=False,
        results_dir=tmp_path / "results",
    )
    first = run_experiment("fig08", **kwargs)
    resumed = run_experiment("fig08", resume=first.run_id, **kwargs)
    assert resumed.run_id == first.run_id
    assert resumed.computed == 0
    assert resumed.resumed == len(first.rows)
    assert resumed.digest_hex == first.digest_hex


def test_worker_count_does_not_change_results(tmp_path):
    serial = run_experiment(
        "fig08",
        profile="fast",
        workers=1,
        use_cache=False,
        results_dir=tmp_path / "serial",
    )
    parallel = run_experiment(
        "fig08",
        profile="fast",
        workers=4,
        use_cache=False,
        results_dir=tmp_path / "parallel",
    )
    assert parallel.rows == serial.rows
    assert parallel.digest_hex == serial.digest_hex


def test_replicates_expand_the_sweep(tmp_path):
    single = run_experiment(
        "fig08",
        profile="fast",
        use_cache=False,
        results_dir=tmp_path / "results",
    )
    doubled = run_experiment(
        "fig08",
        profile="fast",
        replicates=2,
        use_cache=False,
        results_dir=tmp_path / "results",
    )
    assert len(doubled.rows) == 2 * len(single.rows)


def test_failing_point_raises_with_context(tmp_path, monkeypatch):
    driver = driver_for("fig08")

    def boom(point, seed):
        raise ValueError("synthetic point failure")

    monkeypatch.setattr(driver, "run_point", boom)
    with pytest.raises(RuntimeError, match="synthetic point failure"):
        run_experiment(
            "fig08",
            profile="fast",
            use_cache=False,
            results_dir=tmp_path / "results",
        )


def test_cli_run_rejects_unknown_figure_and_profile(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err
    assert main(["run", "fig08", "--profile", "warp"]) == 2
    assert "unknown profile" in capsys.readouterr().err


def test_cli_run_missing_resume_id_is_a_clean_error(capsys, tmp_path):
    argv = ["run", "fig08", "--resume", "nope"]
    argv += ["--results-dir", str(tmp_path / "results")]
    assert main(argv) == 2
    assert "no stored run" in capsys.readouterr().err


def test_cli_run_fig08_fast_end_to_end(capsys, tmp_path):
    argv = ["run", "fig08", "--profile", "fast"]
    argv += ["--results-dir", str(tmp_path / "results")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "shape checks passed" in out
    assert "run digest" in out


def test_run_help_names_the_directories_a_run_creates(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # one help string per line, unwrapped
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = capsys.readouterr().out
    (cache_dir,) = re.findall(r"point cache directory \(default: (\S+)\)", help_text)
    (trace_dir,) = re.findall(r"span JSONL under (\S+);", help_text)

    # Where files land is the subject, not the traced companion's
    # physics: shrink it from 6 hosts x 6 ms (~20 s) to a blink.
    from repro.obs import scenarios

    tiny = replace(scenarios._BASE, num_hosts=3, duration_ms=0.4, warmup_ms=0.1)
    monkeypatch.setattr(scenarios, "_BASE", tiny)

    root = tmp_path / "results"
    run_experiment("fig08", "fast", results_dir=root)
    traced = run_experiment("fig08", "fast", results_dir=root, trace=True)

    def stated(template):
        path = template.replace("<results-dir>", str(root))
        path = path.replace("<figure>", "fig08").replace("<run-id>", traced.run_id)
        assert "<" not in path, template
        return Path(path)

    assert stated(cache_dir).is_dir()
    assert any(stated(trace_dir).glob("point-*.trace.json"))
