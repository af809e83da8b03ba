"""Layer map coverage, profile attribution, and import hygiene."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

from benchmarks.ledger import layers
from benchmarks.ledger.catalog import LAYERS, WORKLOAD_NAMES
from conftest import ROOT
from repro.stats.digest import digest_hex


def _repro_files():
    return sorted(
        p.relative_to(layers.REPRO_ROOT).as_posix()
        for p in layers.REPRO_ROOT.rglob("*.py")
    )


def test_every_repro_file_maps_to_exactly_one_layer():
    files = _repro_files()
    assert len(files) > 100
    for relative in files:
        by_file = relative in layers._FILE_LAYER
        head, _, rest = relative.partition("/")
        by_package = bool(rest) and head in layers._PACKAGE_LAYER
        assert by_file + by_package == 1, relative
        assert layers.layer_of(relative) in LAYERS
        assert layers.layer_of(relative) != "loop"  # loop is no file's layer


def test_every_file_layer_rule_names_a_real_file():
    files = set(_repro_files())
    assert set(layers._FILE_LAYER) <= files


def test_stdlib_time_is_charged_to_the_nearest_repro_frame():
    payload = {f"k{i}": list(range(50)) for i in range(200)}
    profile = layers.LayerProfile()
    profile.enable()
    for _ in range(20):
        digest_hex(payload)  # repro.stats -> json.dumps, hashlib
        json.dumps(payload)  # called from this (harness) file: excluded
    profile.disable()
    seconds, calls = profile.attribute()
    assert calls["stats"] == 20
    assert seconds["stats"] / sum(seconds.values()) > 0.99
    assert seconds["loop"] == 0.0


def test_ledger_imports_only_public_repro_and_stdlib():
    for path in sorted(layers.LEDGER_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [(node.module or "", alias.name) for alias in node.names]
            else:
                continue
            for module, name in imported:
                where = f"{path.name}: {module} {name or ''}"
                assert not module.startswith("benchmarks.perf"), where
                assert module != "tests" and not module.startswith("tests."), where
                if module == "repro" or module.startswith("repro."):
                    parts = module.split(".") + ([name] if name else [])
                    assert not any(p.startswith("_") for p in parts), where


def _modules_after(code: str) -> set:
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(done.stdout.split())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_setup_child_imports_only_what_a_repro_user_would(name):
    """``setup_s`` times the child's imports: loading a workload may pull
    in nothing beyond what the ``repro`` modules it drives import."""
    from benchmarks.ledger.workloads import load

    source = importlib.import_module(type(load(name)).__module__).__file__
    tree = ast.parse(open(source).read())
    user = [
        ast.unparse(node) for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
    ]
    assert user, source
    child = (
        "import benchmarks.ledger.child\n"
        f"from benchmarks.ledger.workloads import load; load({name!r})"
    )
    extra = _modules_after(child) - _modules_after("\n".join(user))
    assert {m for m in extra if not m.startswith("benchmarks")} == set()
