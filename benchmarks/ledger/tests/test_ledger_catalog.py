"""Catalogue <-> BENCHMARK.json equality, and schema accept/reject."""

import copy
import json

import pytest

from benchmarks.ledger import catalog, schema
from conftest import ROOT


def test_benchmark_json_is_the_catalogue_serialised():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == catalog.benchmark_document()


def test_catalogue_document_is_valid():
    assert schema.validate_document(catalog.benchmark_document()) == []


def test_catalogue_covers_every_layer_and_stays_within_limits():
    names = [m.name for m in catalog.PER_LAYER]
    for layer in catalog.LAYERS:
        assert f"{layer}.self_share" in names
        assert f"{layer}.calls_per_work" in names
    assert len(names) == len(set(names)) <= 128
    assert [w.name for w in catalog.WORKLOADS] == [
        "sim_incast_32k", "sim_small_rpc_1k", "sweep_fast_trio", "live_closed_8x1k",
    ]
    # setup_s carries the largest bound.
    bounds = {m.name: m.bound for m in catalog.END_TO_END}
    assert bounds["setup_s"] == max(bounds.values()) <= schema.MAX_BOUND


def _mutations():
    def drop_key(d):
        del d["paths"]

    def extra_key(d):
        d["notes"] = "x"

    def absolute_command(d):
        d["command"] = ["python3", "/root/repo/benchmarks/ledger/__main__.py"]

    def command_outside_paths(d):
        d["command"] = ["python3", "benchmarks/perf/__main__.py"]

    def command_dotdot(d):
        d["command"] = ["python3", "benchmarks/ledger/../perf/__main__.py"]

    def one_workload(d):
        d["workloads"] = d["workloads"][:1]

    def long_why(d):
        d["workloads"][0]["why"] = "x" * 201

    def two_line_why(d):
        d["workloads"][0]["why"] = "a\nb"

    def workload_extra_key(d):
        d["workloads"][0]["work_unit"] = "ms"

    def big_bound(d):
        d["end_to_end"][1]["bound"] = 0.3

    def zero_bound(d):
        d["end_to_end"][1]["bound"] = 0

    def no_setup(d):
        d["end_to_end"] = [m for m in d["end_to_end"] if m["name"] != "setup_s"]

    def setup_wrong_unit(d):
        d["end_to_end"][0]["unit"] = "ms"

    def bad_unit(d):
        d["per_layer"][0]["unit"] = "calls per work"

    def bad_name(d):
        d["per_layer"][0]["name"] = "_hidden"

    def duplicate_name(d):
        d["per_layer"][1]["name"] = d["per_layer"][0]["name"]

    def per_layer_with_bound(d):
        d["per_layer"][0]["bound"] = 0.1

    def bad_direction(d):
        d["per_layer"][0]["better"] = "neutral"

    def long_run(d):
        d["run_seconds"] = 61

    def fractional_run(d):
        d["run_seconds"] = 30.0

    def too_many_per_layer(d):
        d["per_layer"] = [
            {"name": f"m{i}", "unit": "ns", "better": "lower"} for i in range(129)
        ]

    return [v for k, v in sorted(locals().items())]


@pytest.mark.parametrize("mutate", _mutations(), ids=lambda f: f.__name__)
def test_schema_rejects_contract_violations(mutate):
    document = copy.deepcopy(catalog.benchmark_document())
    mutate(document)
    assert schema.validate_document(document), mutate.__name__


def _result(trace: bool):
    values = {m.name: 1.5 for m in (catalog.PER_LAYER if trace else catalog.END_TO_END)}
    return schema.result_line(True, 10, 0, values, trace)


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_accepts_exactly_the_modes_metrics(trace):
    result = _result(trace)
    assert schema.validate_result(result, trace) == []
    # The other mode's metric set is not this mode's.
    assert schema.validate_result(result, not trace)


def test_result_line_rejections():
    base = _result(False)

    def broken(**changes):
        result = copy.deepcopy(base)
        result.update(changes)
        return schema.validate_result(result, False)

    assert broken(attempted=0)
    assert broken(failed=-1)
    assert broken(attempted=True)
    assert broken(correct="yes")
    assert schema.validate_result({**base, "notes": 1}, False)
    zero = copy.deepcopy(base)
    zero["metrics"]["work_per_sec"]["value"] = 0.0
    assert any("never read 0" in p for p in schema.validate_result(zero, False))
    wrong_unit = copy.deepcopy(base)
    wrong_unit["metrics"]["setup_s"]["unit"] = "ms"
    assert schema.validate_result(wrong_unit, False)
    nan = copy.deepcopy(base)
    nan["metrics"]["setup_s"]["value"] = float("nan")
    assert schema.validate_result(nan, False)
    # A per-layer metric that does not apply reads 0 and is fine.
    traced = _result(True)
    traced["metrics"]["loop.self_share"]["value"] = 0.0
    assert schema.validate_result(traced, True) == []
