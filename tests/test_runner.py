"""Unit tests for the sweep orchestration layer (repro.runner).

The experiment under test throughout is fig08 — its points are
analytic (no packet simulation), so whole sweeps run in milliseconds
and the worker-pool / cache / resume behaviors stay cheap to exercise.
"""

import hashlib
import json
import re
import sys
import types
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


#: Point identity of the three fast sweeps `sweep_fast_trio` runs, as
#: values: every seed, the first cache key and a sha256 over all cache
#: keys (newline-joined, code version ``"golden"``).  However a Point
#: derives or caches its identity, these do not move — a moved seed
#: would silently change every row of the figure.
_IDENTITY_GOLDEN = {
    "fig08": (
        [757223115, 564200927, 753549118, 328480750, 1205114824, 1645717208,
         1097422768, 577736707, 1352059763, 904019751, 891278317],
        "993da8da4929f18ec09f7f0a5c71d2c6ad24751f648644b1ab874a4b2e033e34",
        "9e2d296823f3a327839f4a38e5d2643c9da456a7e485dee9c87b7bc175549e55",
    ),
    "fig09": (
        [222189754, 707103835, 1793269255, 1974503648, 1432963175, 893554017,
         267262711, 624137847, 714364083, 1253217159, 1974494687, 891856652,
         1408835868, 1946066021, 1665935075, 1108624856, 1236599055, 1571815988],
        "40e6a6bc8a72bc9f79a4875814aeca3fb476511ba2f6e23b22d0e75ea9d61279",
        "06d57c71b24834b885684fd6a8f74e034c2c8e53779cc8d7b2b6019f7a95f9e0",
    ),
    "fig10": (
        [1722146483, 973678089, 1084335038, 1292142638],
        "542d8e932e5fb5f51cd2a6c877f4448b081084abb56fed2242e84e31af67e317",
        "67853197f9524783a16498a628ed5c0c6999bbdc7bef5c2234c6f50dd817e127",
    ),
}


@pytest.mark.parametrize("figure", sorted(_IDENTITY_GOLDEN))
def test_point_identity_golden(figure):
    seeds, first_key, keys_sha = _IDENTITY_GOLDEN[figure]
    points = driver_for(figure).sweep("fast")
    assert [p.seed for p in points] == seeds
    keys = [p.cache_key("golden") for p in points]
    assert keys[0] == first_key
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == keys_sha
    # Asking twice gives the same answer (identity is a value, not a draw).
    assert [p.seed for p in points] == seeds
    assert [p.cache_key("golden") for p in points] == keys


def test_point_serialises_its_params_once(monkeypatch):
    from repro.runner import point as point_module

    calls = []
    real = point_module.canonical_json
    monkeypatch.setattr(
        point_module, "canonical_json", lambda v: calls.append(v) or real(v)
    )
    p = Point("fig08", {"share": 0.5})
    for _ in range(3):
        p.seed, p.cache_key("v"), p.canonical_params(), p.label()
    assert len(calls) == 1


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


@pytest.mark.parametrize(
    "content",
    [b"{}", b"null", b"[1]", b'{"row": 3}', b'{"row": null}', b'{"row', b"\xff\xfe"],
    ids=["no-row", "null", "list", "row-not-a-dict", "row-null", "torn", "not-text"],
)
def test_cache_entry_of_the_wrong_shape_is_a_miss(tmp_path, content):
    """Valid JSON that is not an entry is corruption too: a miss, then
    recomputed and overwritten — never an exception out of a sweep, and
    never a non-row handed back as a hit."""
    cache = ResultCache(tmp_path)
    ver = code_version()
    point = Point("fig08", {"share": 0.5})
    cache.put(point, ver, {"delay": 1.0})
    (path,) = tmp_path.rglob("*.json")
    path.write_bytes(content)
    assert cache.get(point, ver) is None
    assert (cache.hits, cache.misses) == (0, 1)
    cache.put(point, ver, {"delay": 1.0})
    assert cache.get(point, ver) == {"delay": 1.0}


def test_sweep_recomputes_and_overwrites_a_wrong_shaped_entry(tmp_path):
    kwargs = dict(
        profile="fast",
        results_dir=tmp_path / "results",
        cache_dir=tmp_path / "cache",
    )
    first = run_experiment("fig08", **kwargs)
    entries = sorted((tmp_path / "cache").rglob("*.json"))
    entries[0].write_text("{}")
    entries[1].write_text('{"row": 3}')
    second = run_experiment("fig08", **kwargs)
    assert (second.computed, second.cached) == (2, len(entries) - 2)
    assert second.rows == first.rows
    third = run_experiment("fig08", **kwargs)
    assert third.computed == 0


def test_store_roundtrip_and_missing_run(tmp_path):
    store = ResultStore(tmp_path)
    doc = {"experiment": "fig08", "run_id": "r1", "points": []}
    path = store.write(doc)
    assert path.exists()
    assert store.load("fig08", "r1") == doc
    assert store.list_runs("fig08") == ["r1"]
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
        assert callable(driver.check) and callable(driver.table), name
        assert set(driver.BOUNDS) == set(driver.PROFILES), name
        for profile in driver.PROFILES:
            points = driver.sweep(profile)
            assert points, f"{name}/{profile}: empty sweep"
            assert all(p.experiment == name for p in points)


def test_driver_without_table_is_refused(monkeypatch):
    from repro.runner import registry

    stub = types.ModuleType("stub_driver")
    stub.PROFILES = {"fast": {}}
    stub.sweep = lambda profile="fast": []
    stub.run_point = lambda point, seed: {}
    stub.check = lambda rows, profile, series=None: []
    monkeypatch.setitem(sys.modules, "stub_driver", stub)
    monkeypatch.setitem(registry.FIGURE_MODULES, "stub", "stub_driver")
    with pytest.raises(TypeError, match="missing table"):
        driver_for("stub")


def test_check_judges_each_replicate_on_its_own_rows(monkeypatch, tmp_path):
    """Every replicate is a whole sweep: ``check`` sees one replicate's
    rows at a time (a one-point driver unpacking ``(row,) = rows`` must
    not see two), and a failing claim names its replicate."""
    from repro.runner import registry

    def check(rows, profile, series=None):
        (row,) = rows
        from repro.runner.point import judge

        return judge({"stub/replicate": ("<", 1)}, {"stub/replicate": row["replicate"]})

    stub = types.ModuleType("stub_driver")
    stub.PROFILES = {"fast": {}}
    stub.sweep = lambda profile="fast": [Point("stub", {"x": 1})]
    stub.run_point = lambda point, seed: {"replicate": point.replicate}
    stub.check = check
    stub.table = lambda rows: ""
    monkeypatch.setitem(sys.modules, "stub_driver", stub)
    monkeypatch.setitem(registry.FIGURE_MODULES, "stub", "stub_driver")
    report = run_experiment(
        "stub", "fast", replicates=2, use_cache=False, results_dir=tmp_path
    )
    assert report.failures == ["stub/replicate [replicate 1]: measured 1, bound < 1"]
    checks = json.loads(report.path.read_text())["checks"]
    assert checks["passed"] is False
    assert [(c["replicate"], c["passed"]) for c in checks["claims"]] == [
        (0, True),
        (1, False),
    ]


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
