"""Every name a ``repro`` module lists in ``__all__`` resolves.

A deletion that leaves a stale export behind would otherwise surface
only as an ``ImportError`` in whichever caller first does ``from
module import *``.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith("__main__")
)


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
