"""Make ``python -m pytest benchmarks/ledger/tests -q`` work from the
repo root without ``PYTHONPATH``: the ledger imports ``benchmarks.*``
(repo root) and ``repro.*`` (``src``)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
