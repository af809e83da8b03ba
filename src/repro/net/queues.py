"""Output-port packet schedulers: FIFO, WFQ, DWRR, strict priority, pFabric.

WFQ is the paper's building block.  We implement Self-Clocked Fair
Queueing (SCFQ), the practical virtual-time approximation of GPS used by
commodity switch ASICs: each class keeps a FIFO; an arriving packet gets
a finish tag ``max(V, last_finish[class]) + size/weight``; the scheduler
serves the smallest finish tag and sets the virtual time V to the tag of
the packet in service.  This yields the per-class minimum guaranteed
rate g_i = phi_i / sum(phi) * r and work conservation the analysis in
Section 4 relies on.

All schedulers share one buffer-accounting scheme: a byte-capacity cap,
shared across classes (mirroring "buffer space is shared across the
ports based on usage" at a per-port granularity).  ``enqueue`` returns
False on a drop so the caller (the port) can count it.

Storage layout
--------------

Every FIFO is a :class:`collections.deque`: one for the shared FIFO, one
per class for the classed schedulers.  WFQ queues each packet beside its
SCFQ finish tag, as ``(tag, packet)``, and picks the next packet by
scanning the (at most ``num_classes``) class heads for the smallest
``(tag, class)`` — with a handful of classes that scan is cheaper than
maintaining a heap of heads, and there is no stale entry to detect.
The service order of every scheduler is pinned as a value by
``tests/test_net_queues_golden.py``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.packet import MTU_BYTES, Packet
from repro.sim.sanitize import SanitizerError, sanitize_enabled

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer
    from repro.sim.engine import Simulator


class SchedulerStats:
    """Counters every scheduler keeps, split per QoS class."""

    def __init__(self, num_classes: int):
        self.enqueued = [0] * num_classes
        self.dequeued = [0] * num_classes
        self.dropped = [0] * num_classes

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped)


class Scheduler:
    """Interface every port scheduler implements.

    ``sanitize`` enables the SimSanitizer conservation checks for this
    instance (``None`` defers to ``REPRO_SANITIZE``); sanitized and
    unsanitized schedulers make bit-identical service decisions.
    """

    def __init__(
        self, num_classes: int, buffer_bytes: int, sanitize: Optional[bool] = None
    ):
        if buffer_bytes <= 0:
            raise ValueError("buffer must be positive")
        self.num_classes = num_classes
        self.buffer_bytes = buffer_bytes
        self.bytes_queued = 0
        self.packets_queued = 0
        self.stats = SchedulerStats(num_classes)
        self._sanitize = sanitize_enabled(sanitize)
        # Observability binding (see repro.obs): None unless the owning
        # port wired a tracer at construction.  Only cold paths (drops
        # after admission, i.e. pFabric evictions) consult it — arrival
        # refusals are observed by the port itself.
        self._tracer: Optional["Tracer"] = None
        self._trace_node = ""
        self._trace_sim: Optional["Simulator"] = None

    def bind_trace(self, tracer: "Tracer", node: str, sim: "Simulator") -> None:
        """Attach a tracer (with a clock source) for in-scheduler events."""
        self._tracer = tracer
        self._trace_node = node
        self._trace_sim = sim

    def enqueue(self, pkt: Packet) -> bool:
        raise NotImplementedError

    def dequeue(self) -> Optional[Packet]:
        raise NotImplementedError

    def __len__(self) -> int:
        return self.packets_queued

    def _check_class(self, qos: int) -> None:
        if not 0 <= qos < self.num_classes:
            raise ValueError(f"packet QoS {qos} out of range for {self.num_classes} classes")

    # ------------------------------------------------------------------
    # SimSanitizer hooks (only reached when ``self._sanitize`` is True)
    # ------------------------------------------------------------------
    def _evicted_count(self) -> int:
        """Packets dropped *after* admission (pFabric eviction); the
        conservation identity charges them separately from refusals."""
        return 0

    def _conservation_error(self, detail: str, pkt: Optional[Packet]) -> SanitizerError:
        return SanitizerError(
            "queue-conservation",
            f"{type(self).__name__}: {detail}",
            {
                "packet": repr(pkt) if pkt is not None else None,
                "enqueued": list(self.stats.enqueued),
                "dequeued": list(self.stats.dequeued),
                "dropped": list(self.stats.dropped),
                "packets_queued": self.packets_queued,
                "bytes_queued": self.bytes_queued,
            },
        )

    def _sanitize_check(self, pkt: Optional[Packet]) -> None:
        """Totals-level conservation: enq == deq + evicted + backlog."""
        if self.bytes_queued < 0 or self.packets_queued < 0:
            raise self._conservation_error("negative buffer occupancy", pkt)
        enq = sum(self.stats.enqueued)
        deq = sum(self.stats.dequeued)
        expect = deq + self._evicted_count() + self.packets_queued
        if enq != expect:
            raise self._conservation_error(
                f"packet conservation broken: enqueued={enq} != "
                f"dequeued+evicted+backlog={expect}",
                pkt,
            )


class FifoScheduler(Scheduler):
    """Single shared FIFO; QoS is ignored (the no-QoS baseline)."""

    def __init__(
        self, buffer_bytes: int, num_classes: int = 1, sanitize: Optional[bool] = None
    ):
        super().__init__(num_classes, buffer_bytes, sanitize)
        self._queue: Deque[Packet] = deque()
        # Per-class byte occupancy: the shared FIFO still attributes
        # bytes to the (clamped) QoS class, for the sanitizer's byte
        # conservation check.
        self._class_bytes = [0] * num_classes

    def enqueue(self, pkt: Packet) -> bool:
        qos = min(pkt.qos, self.num_classes - 1)
        if self.bytes_queued + pkt.size_bytes > self.buffer_bytes:
            self.stats.dropped[qos] += 1
            return False
        self._queue.append(pkt)
        self.bytes_queued += pkt.size_bytes
        self._class_bytes[qos] += pkt.size_bytes
        self.packets_queued += 1
        self.stats.enqueued[qos] += 1
        if self._sanitize:
            self._sanitize_check(pkt)
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        pkt = self._queue.popleft()
        qos = min(pkt.qos, self.num_classes - 1)
        self.bytes_queued -= pkt.size_bytes
        self._class_bytes[qos] -= pkt.size_bytes
        self.packets_queued -= 1
        self.stats.dequeued[qos] += 1
        if self._sanitize:
            self._sanitize_check(pkt)
        return pkt

    def _sanitize_check(self, pkt: Optional[Packet]) -> None:
        super()._sanitize_check(pkt)
        if self.packets_queued != len(self._queue):
            raise self._conservation_error(
                f"packets_queued={self.packets_queued} != "
                f"FIFO occupancy {len(self._queue)}",
                pkt,
            )
        if sum(self._class_bytes) != self.bytes_queued:
            raise self._conservation_error(
                f"per-class bytes {self._class_bytes} do not sum to "
                f"bytes_queued={self.bytes_queued}",
                pkt,
            )


class _ClassedScheduler(Scheduler):
    """Shared plumbing for schedulers with one FIFO per QoS class.

    ``_queues[c]`` holds class ``c``'s packets in arrival order (WFQ
    stores ``(finish tag, packet)`` pairs in it instead).
    """

    def __init__(
        self, num_classes: int, buffer_bytes: int, sanitize: Optional[bool] = None
    ):
        super().__init__(num_classes, buffer_bytes, sanitize)
        self._queues: List[Deque[Any]] = [deque() for _ in range(num_classes)]
        self._class_bytes = [0] * num_classes

    def _admit(self, pkt: Packet) -> bool:
        qos = pkt.qos
        self._check_class(qos)
        if self.bytes_queued + pkt.size_bytes > self.buffer_bytes:
            self.stats.dropped[qos] += 1
            return False
        self._queues[qos].append(pkt)
        self.bytes_queued += pkt.size_bytes
        self._class_bytes[qos] += pkt.size_bytes
        self.packets_queued += 1
        self.stats.enqueued[qos] += 1
        if self._sanitize:
            self._sanitize_check(pkt)
        return True

    def _remove(self, qos: int) -> Packet:
        pkt: Packet = self._queues[qos].popleft()
        self.bytes_queued -= pkt.size_bytes
        self._class_bytes[qos] -= pkt.size_bytes
        self.packets_queued -= 1
        self.stats.dequeued[qos] += 1
        if self._sanitize:
            self._sanitize_check(pkt)
        return pkt

    def _sanitize_check(self, pkt: Optional[Packet]) -> None:
        """Per-class conservation: enq[c] == deq[c] + FIFO occupancy."""
        enq = self.stats.enqueued
        deq = self.stats.dequeued
        for qos in range(self.num_classes):
            backlog = len(self._queues[qos])
            if enq[qos] != deq[qos] + backlog:
                raise self._conservation_error(
                    f"class {qos} conservation broken: enqueued={enq[qos]} != "
                    f"dequeued={deq[qos]} + backlog={backlog}",
                    pkt,
                )
            if self._class_bytes[qos] < 0:
                raise self._conservation_error(
                    f"class {qos} byte counter negative: {self._class_bytes[qos]}",
                    pkt,
                )
        if sum(self._class_bytes) != self.bytes_queued:
            raise self._conservation_error(
                f"per-class bytes {self._class_bytes} do not sum to "
                f"bytes_queued={self.bytes_queued}",
                pkt,
            )
        if self.packets_queued != sum(len(q) for q in self._queues):
            raise self._conservation_error(
                f"packets_queued={self.packets_queued} != sum of class backlogs",
                pkt,
            )


class WfqScheduler(_ClassedScheduler):
    """Weighted fair queueing via SCFQ virtual finish tags.

    ``weights[i]`` is the WFQ weight phi_i of QoS class i (index 0 is
    the highest class by convention, but SCFQ itself only cares about
    the weight values).
    """

    def __init__(
        self,
        weights: Sequence[float],
        buffer_bytes: int,
        sanitize: Optional[bool] = None,
    ):
        if any(w <= 0 for w in weights):
            raise ValueError("WFQ weights must be positive")
        super().__init__(len(weights), buffer_bytes, sanitize)
        self.weights = tuple(float(w) for w in weights)
        self._virtual_time = 0.0
        self._last_finish = [0.0] * len(weights)
        # Stats counter lists are stable objects; bind them once so the
        # per-packet path skips the stats attribute walk.
        self._stats_enqueued = self.stats.enqueued
        self._stats_dequeued = self.stats.dequeued
        self._stats_dropped = self.stats.dropped

    def enqueue(self, pkt: Packet) -> bool:
        # _admit() is inlined: this method runs once per packet on every
        # WFQ egress port, the hottest scheduler path in the simulator.
        qos = pkt.qos
        if not 0 <= qos < self.num_classes:
            raise ValueError(f"packet QoS {qos} out of range for {self.num_classes} classes")
        size = pkt.size_bytes
        if self.bytes_queued + size > self.buffer_bytes:
            self._stats_dropped[qos] += 1
            return False
        self.bytes_queued += size
        self._class_bytes[qos] += size
        self.packets_queued += 1
        self._stats_enqueued[qos] += 1
        vt = self._virtual_time
        last = self._last_finish[qos]
        finish = (vt if vt > last else last) + size / self.weights[qos]
        self._last_finish[qos] = finish
        self._queues[qos].append((finish, pkt))
        if self._sanitize:
            self._sanitize_check(pkt)
        return True

    def dequeue(self) -> Optional[Packet]:
        # Smallest (finish tag, class) among the class heads: the scan
        # runs in class order and only a strictly smaller tag wins.
        best: Optional[Deque[Tuple[float, Packet]]] = None
        tag = 0.0
        for queue in self._queues:
            if queue:
                head = queue[0][0]
                if best is None or head < tag:
                    best = queue
                    tag = head
        if best is None:
            if self._sanitize and self.packets_queued:
                # Work conservation: nothing to serve while packets are
                # accounted as queued — a lost-packet bug would
                # otherwise wedge the port silently with backlog.
                raise SanitizerError(
                    "wfq-work-conservation",
                    "no class head to serve with packets queued",
                    {
                        "packets_queued": self.packets_queued,
                        "class_backlogs": [len(q) for q in self._queues],
                    },
                )
            return None
        # Inlined _remove().
        pkt = best.popleft()[1]
        qos = pkt.qos
        size = pkt.size_bytes
        self.bytes_queued -= size
        self._class_bytes[qos] -= size
        self.packets_queued -= 1
        self._stats_dequeued[qos] += 1
        if self._sanitize and tag < self._virtual_time:
            # SCFQ invariant: every pending finish tag is >= V (tags
            # are minted at max(V, last_finish) + size/weight and V
            # only advances to served tags), so service order is
            # virtual-time monotone within a busy period.
            raise SanitizerError(
                "wfq-virtual-time",
                "finish tag served behind the virtual clock",
                {
                    "packet": repr(pkt),
                    "finish_tag": tag,
                    "virtual_time": self._virtual_time,
                    "qos": qos,
                },
            )
        if self.packets_queued == 0:
            # System empties: reset virtual time so tags don't grow
            # without bound over long runs.
            self._virtual_time = 0.0
            self._last_finish = [0.0] * self.num_classes
        elif tag > self._virtual_time:
            self._virtual_time = tag
        if self._sanitize:
            self._sanitize_check(pkt)
        return pkt


class StrictPriorityScheduler(_ClassedScheduler):
    """Strict priority: always serve the lowest-numbered backlogged class.

    This is the SPQ baseline of Section 6.7 — it starves lower classes
    under high-class overload, which is exactly the failure mode the
    comparison demonstrates.
    """

    def enqueue(self, pkt: Packet) -> bool:
        return self._admit(pkt)

    def dequeue(self) -> Optional[Packet]:
        for qos, queue in enumerate(self._queues):
            if queue:
                return self._remove(qos)
        return None


class DwrrScheduler(_ClassedScheduler):
    """Deficit Weighted Round Robin (Shreedhar & Varghese).

    An alternative WFQ realization (the paper names DWRR alongside
    virtual-time PGPS); each class's quantum is weight * MTU bytes.
    """

    def __init__(
        self,
        weights: Sequence[float],
        buffer_bytes: int,
        quantum_bytes: int = MTU_BYTES,
        sanitize: Optional[bool] = None,
    ):
        if any(w <= 0 for w in weights):
            raise ValueError("DWRR weights must be positive")
        super().__init__(len(weights), buffer_bytes, sanitize)
        self.weights = tuple(float(w) for w in weights)
        self._quanta = [w * quantum_bytes for w in self.weights]
        self._deficit = [0.0] * len(weights)
        self._active: Deque[int] = deque()
        self._in_active = [False] * len(weights)

    def enqueue(self, pkt: Packet) -> bool:
        if not self._admit(pkt):
            return False
        if not self._in_active[pkt.qos]:
            self._active.append(pkt.qos)
            self._in_active[pkt.qos] = True
            self._deficit[pkt.qos] = 0.0
        return True

    def dequeue(self) -> Optional[Packet]:
        # Round-robin over active classes, granting each its quantum on
        # every visit.  Quanta are strictly positive, so some backlogged
        # class always becomes serviceable eventually — DWRR is work
        # conserving and must never report an empty service decision
        # while packets are queued (a bounded-iteration loop here once
        # made ports go idle with backlog under fractional weights).
        active = self._active
        deficits = self._deficit
        quanta = self._quanta
        queues = self._queues
        idle_visits = 0
        while active:
            qos = active[0]
            if not queues[qos]:
                active.popleft()
                self._in_active[qos] = False
                continue
            head_size = queues[qos][0].size_bytes
            if deficits[qos] >= head_size:
                deficits[qos] -= head_size
                pkt = self._remove(qos)
                if not queues[qos]:
                    active.popleft()
                    self._in_active[qos] = False
                    deficits[qos] = 0.0
                return pkt
            deficits[qos] += quanta[qos]
            active.rotate(-1)
            idle_visits += 1
            if idle_visits > len(active):
                # A full rotation passed with no service.  Fast-forward
                # the whole rounds in which nobody can send: each full
                # round grants every class exactly one quantum, in any
                # order, so bulk-adding them is identical to iterating —
                # this keeps tiny quanta (weights like 0.5/0.3/0.2, or
                # smaller) from turning dequeue into a long spin.
                rounds = min(
                    max(
                        0,
                        math.ceil(
                            (queues[q][0].size_bytes - deficits[q]) / quanta[q]
                        )
                        - 1,
                    )
                    for q in active
                )
                if rounds > 0:
                    for q in active:
                        deficits[q] += rounds * quanta[q]
                idle_visits = 0
        return None


class PFabricScheduler(Scheduler):
    """pFabric switch queue: serve smallest remaining size first.

    The queue is a min-heap keyed on ``remaining_mtus`` (ties broken by
    arrival order).  When the buffer is full, pFabric drops the *largest*
    remaining-size packet in the queue if the arrival is smaller,
    otherwise drops the arrival — the paper's "minimal near-optimal"
    switch behavior.
    """

    def __init__(
        self, buffer_bytes: int, num_classes: int = 3, sanitize: Optional[bool] = None
    ):
        super().__init__(num_classes, buffer_bytes, sanitize)
        self._heap: List[Tuple[int, int, Packet]] = []
        self._counter = itertools.count()
        self._evicted: Dict[int, bool] = {}
        self._evictions = 0
        # Lazy max-tracking for evictions: a second heap keyed
        # ``(-remaining_mtus, -arrival)`` whose stale entries (already
        # dequeued or evicted) are skipped on peek.  This replaces an
        # O(n) scan of the whole queue per overflowing arrival.
        self._maxheap: List[Tuple[int, int, Packet]] = []
        self._present: Set[int] = set()  # uids currently queued

    def enqueue(self, pkt: Packet) -> bool:
        qos = min(pkt.qos, self.num_classes - 1)
        while self.bytes_queued + pkt.size_bytes > self.buffer_bytes:
            victim = self._largest_queued()
            if victim is None or victim.remaining_mtus <= pkt.remaining_mtus:
                self.stats.dropped[qos] += 1
                return False
            self._evicted[victim.uid] = True
            self._present.discard(victim.uid)
            _heappop(self._maxheap)  # victim is the live top
            self.bytes_queued -= victim.size_bytes
            self.packets_queued -= 1
            self._evictions += 1
            self.stats.dropped[min(victim.qos, self.num_classes - 1)] += 1
            if self._tracer is not None and self._trace_sim is not None:
                self._tracer.on_drop(
                    self._trace_node, victim, self._trace_sim.now, reason="evicted"
                )
        count = next(self._counter)
        _heappush(self._heap, (pkt.remaining_mtus, count, pkt))
        _heappush(self._maxheap, (-pkt.remaining_mtus, -count, pkt))
        self._present.add(pkt.uid)
        self.bytes_queued += pkt.size_bytes
        self.packets_queued += 1
        self.stats.enqueued[qos] += 1
        if len(self._maxheap) > 4 * self.packets_queued + 64:
            self._compact_maxheap()
        if self._sanitize:
            self._sanitize_check(pkt)
        return True

    def _evicted_count(self) -> int:
        return self._evictions

    def _sanitize_check(self, pkt: Optional[Packet]) -> None:
        super()._sanitize_check(pkt)
        if len(self._present) != self.packets_queued:
            raise self._conservation_error(
                f"live-uid set size {len(self._present)} != "
                f"packets_queued={self.packets_queued}",
                pkt,
            )

    def _largest_queued(self) -> Optional[Packet]:
        """Peek the largest-remaining live packet (stale tops dropped)."""
        maxheap = self._maxheap
        present = self._present
        while maxheap:
            pkt = maxheap[0][2]
            if pkt.uid in present:
                return pkt
            _heappop(maxheap)
        return None

    def _compact_maxheap(self) -> None:
        """Rebuild the eviction heap from live entries only.

        Dequeues leave stale entries behind; rebuilding when the heap
        grows past a small multiple of the queue bounds memory and keeps
        every operation amortized O(log n).
        """
        present = self._present
        self._maxheap = [
            (-remaining, -count, pkt)
            for remaining, count, pkt in self._heap
            if pkt.uid in present
        ]
        heapq.heapify(self._maxheap)

    def dequeue(self) -> Optional[Packet]:
        while self._heap:
            _, __, pkt = _heappop(self._heap)
            if pkt.uid in self._evicted:
                del self._evicted[pkt.uid]
                continue
            self._present.discard(pkt.uid)
            self.bytes_queued -= pkt.size_bytes
            self.packets_queued -= 1
            self.stats.dequeued[min(pkt.qos, self.num_classes - 1)] += 1
            if self._sanitize:
                self._sanitize_check(pkt)
            return pkt
        return None
