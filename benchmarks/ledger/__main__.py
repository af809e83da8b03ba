"""Entry point: ``python3 benchmarks/ledger/__main__.py`` (what
``BENCHMARK.json`` names) or ``python3 -m benchmarks.ledger``.

Run as a script, ``sys.path[0]`` is this directory, which would let its
``tests`` package shadow the repo's; it is replaced by the repo root
and ``src`` so that both spellings import the same modules.
"""

import os
import sys
from pathlib import Path

# The ledger is one thread by design.  ``import numpy`` otherwise starts
# an OpenBLAS worker per visible core (nothing in ``repro`` uses BLAS):
# on the 2-core build host that was 55 ms of a 170 ms import, the
# noisiest part of ``setup_s`` (a thread start wakes the idle vCPU), and
# a cost that scales with the host's cores, not with the repo.  The
# set-up children inherit the variable.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
sys.path[:] = [p for p in sys.path if p and Path(p).resolve() != _HERE]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
