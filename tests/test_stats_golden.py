"""Literal goldens for the numeric helpers in ``repro.stats.summary`` and
``repro.analysis.convergence``.

``percentile`` and ``steady_value`` / ``smooth`` / ``convergence_time_ns``
feed every figure row and every run digest, so a change to *how* they
reach numpy (or to the banding arithmetic) must reproduce these values
bit for bit.  Floats are pinned as ``float.hex()``; list-valued results
as a SHA-256 over their hex.  Inputs are seeded and use only IEEE-exact
arithmetic; the lengths 0, 1, 7, 8, 129 and 1000 straddle numpy's
pairwise-summation block boundaries (8 and 128).

Regenerate with ``PYTHONPATH=src python tests/test_stats_golden.py``
only when a result is meant to move.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Tuple

import pytest

from repro.analysis.convergence import convergence_time_ns, smooth, steady_value
from repro.stats.summary import percentile

_LENGTHS = (0, 1, 7, 8, 129, 1000)


def _samples(n: int) -> List[float]:
    rng = random.Random(1000 + n)
    return [rng.random() * 1000.0 for _ in range(n)]


def _trace(n: int) -> List[Tuple[int, float]]:
    """A noisy approach to 0.5 whose noise decays as 1/(1+i)."""
    rng = random.Random(2000 + n)
    return [(i * 1000, 0.5 + (rng.random() - 0.5) / (1 + i)) for i in range(n)]


#: Traces that reach the branches of ``convergence_time_ns`` the seeded
#: ones do not: a steady value of exactly 0 (absolute band), a negative
#: steady value, and a trace that never settles.
_SHAPES: Dict[str, List[Tuple[int, float]]] = {
    "to_zero": [(i * 10, max(0.0, 1.0 - i / 8)) for i in range(64)],
    "negative": [(i * 10, -2.0 - 1.0 / (1 + i)) for i in range(64)],
    "drifting": [(i * 10, float(i)) for i in range(64)],
}


def _sha(pairs: List[Tuple[Any, float]]) -> str:
    text = repr([(a.hex() if isinstance(a, float) else a, b.hex()) for a, b in pairs])
    return hashlib.sha256(text.encode()).hexdigest()


def _observe_samples(n: int) -> Dict[str, Any]:
    x = _samples(n)
    return {
        "p1": percentile(x, 1.0).hex(),
        "p50": percentile(x, 50).hex(),
        "p99": percentile(x, 99.0).hex(),
        "p999": percentile(x, 99.9).hex(),
    }


def _observe_trace(trace: List[Tuple[int, float]]) -> Dict[str, Any]:
    return {
        "steady_value": steady_value(trace).hex() if trace else None,
        "steady_value_half": steady_value(trace, 0.5).hex() if trace else None,
        "smooth5": _sha(smooth(trace)),
        "smooth3": _sha(smooth(trace, window=3)),
        "convergence_time_ns": convergence_time_ns(trace),
        "convergence_tight": convergence_time_ns(trace, tolerance=0.01, smooth_window=3),
    }


def _observe() -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for n in _LENGTHS:
        out[f"samples_{n}"] = _observe_samples(n)
        out[f"trace_{n}"] = _observe_trace(_trace(n))
    for name, trace in _SHAPES.items():
        out[f"trace_{name}"] = _observe_trace(trace)
    return out


GOLDEN: Dict[str, Dict[str, Any]] = {'samples_0': {'p1': 'nan', 'p50': 'nan', 'p99': 'nan', 'p999': 'nan'},
 'trace_0': {'steady_value': None,
             'steady_value_half': None,
             'smooth5': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
             'smooth3': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
             'convergence_time_ns': None,
             'convergence_tight': None},
 'samples_1': {'p1': '0x1.8e5352eb09688p+9',
               'p50': '0x1.8e5352eb09688p+9',
               'p99': '0x1.8e5352eb09688p+9',
               'p999': '0x1.8e5352eb09688p+9'},
 'trace_1': {'steady_value': '0x1.2c40c8c163090p-1',
             'steady_value_half': '0x1.2c40c8c163090p-1',
             'smooth5': '0f381abccab6f026476a5967e6eb521f88e6495bb985b4be6d74df6ebdf1c759',
             'smooth3': '0f381abccab6f026476a5967e6eb521f88e6495bb985b4be6d74df6ebdf1c759',
             'convergence_time_ns': 0,
             'convergence_tight': 0},
 'samples_7': {'p1': '0x1.edc21506f9c2cp+7',
               'p50': '0x1.903df1c5ece93p+9',
               'p99': '0x1.ba9293cf28c45p+9',
               'p999': '0x1.bb69553479e23p+9'},
 'trace_7': {'steady_value': '0x1.0c203f632cafdp-1',
             'steady_value_half': '0x1.1c14da14c5f5ep-1',
             'smooth5': '6284ecebed2a1a2177e1d5b2b9a7f4c8d69eeadc84f47df7ce7c785973804fa5',
             'smooth3': '021a85fc198cd9c3f37866c8e4ca3454548ed5d5ef9fa18bd61cdbdc3d7c5d0c',
             'convergence_time_ns': 0,
             'convergence_tight': None},
 'samples_8': {'p1': '0x1.1a7f7ba7c5722p+6',
               'p50': '0x1.5660cd32b14e3p+9',
               'p99': '0x1.de09c38331da2p+9',
               'p999': '0x1.df1553a31b3d0p+9'},
 'trace_8': {'steady_value': '0x1.18a50e83077abp-1',
             'steady_value_half': '0x1.103e6f1809ce8p-1',
             'smooth5': 'deeddab71aef863344a10595175aa2d3d3d0dcbd45c36da67619e4a73188db40',
             'smooth3': '73650f91bfcdca42aa14cfcaecc4b73888dc4b3af9740456e78dbbfdb736cc43',
             'convergence_time_ns': 0,
             'convergence_tight': None},
 'samples_129': {'p1': '0x1.6b316abad84bfp+2',
                 'p50': '0x1.9a96498168458p+8',
                 'p99': '0x1.ebecbfa72e499p+9',
                 'p999': '0x1.f263051c34101p+9'},
 'trace_129': {'steady_value': '0x1.ff65ca915aa90p-2',
               'steady_value_half': '0x1.ff162ad74d784p-2',
               'smooth5': '91a33e262f87baea1351327576628630dd123b4d41d1b1cf730dd07a3da33379',
               'smooth3': '7d8e6d0b4e596999b8b0f6b8bc68c658858021d40263529c45c6468f5e322282',
               'convergence_time_ns': 1000,
               'convergence_tight': 52000},
 'samples_1000': {'p1': '0x1.4b3c80a6e7813p+3',
                  'p50': '0x1.f18ad1dac311cp+8',
                  'p99': '0x1.f04e679fba990p+9',
                  'p999': '0x1.f2c025153a0b4p+9'},
 'trace_1000': {'steady_value': '0x1.00013e4525da6p-1',
                'steady_value_half': '0x1.ffffdfd088741p-2',
                'smooth5': 'e72d53370d03e10d9fa9416c05d89e9937240647569b68788e898a6ab01bb0e0',
                'smooth3': '2d31dbeb496710e6f7b66d8debfc61016f6c3c1e086b849f72f54e543bf78d4a',
                'convergence_time_ns': 0,
                'convergence_tight': 48000},
 'trace_to_zero': {'steady_value': '0x0.0p+0',
                   'steady_value_half': '0x0.0p+0',
                   'smooth5': 'c0fec6985160d9c6f2d9ae8e8a9876fda01d9bbdfeec31946afd69bf7269ab73',
                   'smooth3': '7c1b9b2534a4d6ebcc170e5f4479b3f1e71b1a935ddf534528fa32b8bd66a461',
                   'convergence_time_ns': 70,
                   'convergence_tight': 90},
 'trace_negative': {'steady_value': '-0x1.0247df38867c2p+1',
                    'steady_value_half': '-0x1.02bdd85f5f574p+1',
                    'smooth5': 'dd319025445ac6c63ed077c781f0579ac9f5d15071552deb3a69f5dda44d8b33',
                    'smooth3': 'a06abcb9fe3d6da7da881eebeb030dad0e044fd57b52f379465ee23d3173bc83',
                    'convergence_time_ns': 30,
                    'convergence_tight': 260},
 'trace_drifting': {'steady_value': '0x1.bc00000000000p+5',
                    'steady_value_half': '0x1.7c00000000000p+5',
                    'smooth5': '4ad0402a3c806ed54d2f973c4418027c68d63dd9c1a9b0abb2a02a8fb0cc0818',
                    'smooth3': '6251184c9c07cf477d82ad5e12809144264fbbf6f261abd7c6febf9e8cc125d3',
                    'convergence_time_ns': 450,
                    'convergence_tight': None}}


@pytest.fixture(scope="module")
def observed() -> Dict[str, Dict[str, Any]]:
    return _observe()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_value_matches_golden(name: str, observed: Dict[str, Dict[str, Any]]) -> None:
    assert observed[name] == GOLDEN[name]


def test_every_case_is_pinned(observed: Dict[str, Dict[str, Any]]) -> None:
    assert sorted(observed) == sorted(GOLDEN)


def test_empty_inputs_are_nan_or_none() -> None:
    nan = float("nan").hex()
    empty = GOLDEN["samples_0"]
    assert empty["p1"] == empty["p50"] == empty["p99"] == empty["p999"] == nan
    assert GOLDEN["trace_0"]["convergence_time_ns"] is None
    with pytest.raises(ValueError):
        steady_value([])


if __name__ == "__main__":
    from pprint import pformat

    print("GOLDEN: Dict[str, Dict[str, Any]] =", pformat(_observe(), sort_dicts=False, width=100))
