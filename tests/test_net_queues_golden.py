"""Literal service-order goldens for the classed packet schedulers.

One seeded program of mixed enqueue/dequeue calls per scheduler, pinned
as a value: the dequeue sequence (every packet named by its position in
enqueue order, ``None`` for an empty dequeue), every enqueue's
accept/refuse verdict and the final per-class counters.  A storage
rewrite of ``repro.net.queues`` must reproduce each run byte for byte —
same float arithmetic, same tie rule, same drop rule, same virtual-time
reset.

The load swings between filling phases (the buffer overflows and drops)
and draining phases (the queue runs empty, so WFQ's virtual clock
resets and DWRR's active list empties), with three packet sizes so
finish tags and deficits do not move in lockstep.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, List, Optional

import pytest

from repro.net.packet import Packet
from repro.net.queues import (
    DwrrScheduler,
    FifoScheduler,
    Scheduler,
    StrictPriorityScheduler,
    WfqScheduler,
)

_OPS = 60_000
_PHASE = 1_500
_BUFFER = 48_000
_SIZES = (64, 1500, 4160)

_MAKERS: Dict[str, Callable[[], Scheduler]] = {
    "fifo": lambda: FifoScheduler(_BUFFER, num_classes=3),
    "spq": lambda: StrictPriorityScheduler(3, _BUFFER),
    "wfq": lambda: WfqScheduler((8, 4, 1), _BUFFER),
    "wfq_fractional": lambda: WfqScheduler((0.5, 0.3, 0.2), _BUFFER),
    # Equal weights and shared sizes: finish tags tie across classes all
    # the time, so the (tag, class) tie rule decides the order.
    "wfq_equal": lambda: WfqScheduler((1, 1, 1), _BUFFER),
    "dwrr": lambda: DwrrScheduler((8, 4, 1), _BUFFER),
    "dwrr_fractional": lambda: DwrrScheduler((0.5, 0.3, 0.2), _BUFFER),
}


def _run(sched: Scheduler, seed: int) -> Dict[str, object]:
    rng = random.Random(seed)
    position: Dict[int, int] = {}  # Packet.uid is process-global; this is not
    served: List[Optional[int]] = []
    verdicts: List[bool] = []
    for op in range(_OPS):
        filling = (op // _PHASE) % 2 == 0
        if rng.random() < (0.62 if filling else 0.36):
            pkt = Packet(0, 1, rng.choice(_SIZES), qos=rng.randrange(3))
            position[pkt.uid] = len(verdicts)
            verdicts.append(sched.enqueue(pkt))
        else:
            out = sched.dequeue()
            served.append(None if out is None else position[out.uid])
    return {
        "sha256": hashlib.sha256(repr((served, verdicts)).encode()).hexdigest(),
        "enqueue_calls": len(verdicts),
        "empty_dequeues": served.count(None),
        "enqueued": list(sched.stats.enqueued),
        "dequeued": list(sched.stats.dequeued),
        "dropped": list(sched.stats.dropped),
        "left": [sched.packets_queued, sched.bytes_queued],
    }


GOLDEN: Dict[str, Dict[str, object]] = {
    "fifo": {
        "sha256": "81165f877307b81d0b4e00ef68b952f7b7d077cdde0ee598e0866e72df94c7a2",
        "enqueue_calls": 29547,
        "empty_dequeues": 7478,
        "enqueued": [7773, 7622, 7581],
        "dequeued": [7773, 7621, 7581],
        "dropped": [2215, 2163, 2193],
        "left": [1, 1500]
    },
    "spq": {
        "sha256": "41d7a9c380f57ec00b6d33ba255dd24ee16272bbcda35e39904b9bc9525fb2c3",
        "enqueue_calls": 29547,
        "empty_dequeues": 7413,
        "enqueued": [7799, 7629, 7613],
        "dequeued": [7799, 7628, 7613],
        "dropped": [2189, 2156, 2161],
        "left": [1, 1500]
    },
    "wfq": {
        "sha256": "631df628b2021fe6a3e0e8b960a49c1069ccb8d44965d055820aa5111218c084",
        "enqueue_calls": 29547,
        "empty_dequeues": 7486,
        "enqueued": [7776, 7599, 7593],
        "dequeued": [7776, 7598, 7593],
        "dropped": [2212, 2186, 2181],
        "left": [1, 1500]
    },
    "wfq_fractional": {
        "sha256": "c68722b8ab63e1aaa15920d11cb4e42e0bc005828f8a98d618fd6b84e7e300b3",
        "enqueue_calls": 29547,
        "empty_dequeues": 7493,
        "enqueued": [7789, 7612, 7560],
        "dequeued": [7789, 7611, 7560],
        "dropped": [2199, 2173, 2214],
        "left": [1, 1500]
    },
    "wfq_equal": {
        "sha256": "51c56668a595dbef6cd0bd89a44fa9a0359d73be427f10ba552fd6acb6008357",
        "enqueue_calls": 29547,
        "empty_dequeues": 7550,
        "enqueued": [7768, 7574, 7562],
        "dequeued": [7768, 7573, 7562],
        "dropped": [2220, 2211, 2212],
        "left": [1, 1500]
    },
    "dwrr": {
        "sha256": "7e66482161a986c34ee7c11b33bd03dd10b9289e7eea7623574f6aacba2facd3",
        "enqueue_calls": 29547,
        "empty_dequeues": 7476,
        "enqueued": [7793, 7568, 7617],
        "dequeued": [7793, 7567, 7617],
        "dropped": [2195, 2217, 2157],
        "left": [1, 1500]
    },
    "dwrr_fractional": {
        "sha256": "d458a6cd1c6a96958549b5f08ed515e113433cd5189918edd0077dd0388255a0",
        "enqueue_calls": 29547,
        "empty_dequeues": 7488,
        "enqueued": [7777, 7627, 7562],
        "dequeued": [7777, 7626, 7562],
        "dropped": [2211, 2158, 2212],
        "left": [1, 1500]
    }
}


@pytest.mark.parametrize("name", sorted(_MAKERS))
def test_service_order_matches_golden(name: str) -> None:
    assert _run(_MAKERS[name](), seed=20221) == GOLDEN[name]


if __name__ == "__main__":
    import json

    observed = {name: _run(make(), seed=20221) for name, make in _MAKERS.items()}
    print("GOLDEN: Dict[str, Dict[str, object]] =", json.dumps(observed, indent=4))
