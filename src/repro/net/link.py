"""Ports and links.

A :class:`Port` models one egress interface: a packet scheduler feeding
a transmitter of fixed line rate, followed by a propagation-delay wire
to the downstream node.  Transmission is non-preemptive: once a packet
starts serializing it finishes.  The port keeps itself busy as long as
the scheduler has backlog (work conservation), which is the property the
paper's WFQ analysis assumes.

The port is *busy-until*: starting a transmission records when the line
frees (``busy_until_ns``) and tells the downstream node when the packet
will arrive (``tx + propagation`` from now) — one event per hop.
``busy`` means "a packet is serializing right now", i.e. the clock has
not reached ``busy_until_ns``; no event marks the line going idle.  Only
when something is queued behind the packet in service does the port post
itself a wake at the line-free instant — when a transmission starts with
backlog, or on the first ``send`` that finds the line mid-packet — so a
backlogged hop costs two events per packet and an uncontended hop one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.net.packet import Packet
from repro.net.queues import Scheduler
from repro.obs.runtime import active_tracer
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

#: Default line rate used throughout the evaluation (Section 6: "All
#: results are at 100Gbps link rates").
DEFAULT_LINE_RATE_BPS = 100e9

#: Default one-way propagation delay per hop.
DEFAULT_PROP_DELAY_NS = 500

#: Cap on memoized serialization times per port.  Real workloads use a
#: handful of distinct packet sizes; a pathological size-per-packet
#: workload would otherwise grow the cache without bound.
_SER_CACHE_MAX = 256


class Port:
    """An egress port: scheduler + serializer + wire.

    ``on_transmit`` hooks (if any) observe every packet as it begins
    serialization — experiments use them to meter per-QoS goodput.
    ``packets_sent``/``bytes_sent`` count at that same instant.
    """

    def __init__(
        self,
        sim: Simulator,
        scheduler: Scheduler,
        rate_bps: float = DEFAULT_LINE_RATE_BPS,
        prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
        name: str = "port",
    ):
        if rate_bps <= 0:
            raise ValueError("line rate must be positive")
        if prop_delay_ns < 0:
            raise ValueError("propagation delay cannot be negative")
        self.sim = sim
        self.scheduler = scheduler
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.name = name
        self.peer: Optional["Node"] = None
        #: When the packet in service (if any) leaves the line.
        self.busy_until_ns = 0
        # True while a _start_next event is posted for busy_until_ns;
        # invariant: scheduler backlog implies a pending wake.
        self._wake_pending = False
        self.bytes_sent = 0
        self.packets_sent = 0
        self.packets_dropped = 0
        self.on_transmit: List[Callable[[Packet, int], None]] = []
        # Serialization times repeat across the handful of packet sizes a
        # workload uses; memoizing them keeps float math (and rounding)
        # off the per-packet path.  Values come from serialization_ns()
        # itself, so cached and uncached results are bit-identical —
        # including across the clear-on-full eviction below.
        self._ser_cache: Dict[int, int] = {}
        # Bound-callable caches: these run once per packet; resolving
        # them through self.sim / self.scheduler / self.peer every time
        # costs an attribute walk plus a method-object allocation each.
        self._post = sim.post
        self._sched_enqueue = scheduler.enqueue
        self._sched_dequeue = scheduler.dequeue
        self._arrive: Optional[Callable[[Packet, int], None]] = None
        # Observability hook, resolved once at construction: None when
        # tracing is off, so every traced path below is a single
        # pointer test (the zero-overhead-off contract).
        self._tracer = active_tracer()
        if self._tracer is not None:
            scheduler.bind_trace(self._tracer, name, sim)

    def connect(self, peer: "Node") -> None:
        """Attach the downstream node this port feeds."""
        self.peer = peer
        self._arrive = peer.arrive

    @property
    def busy(self) -> bool:
        """Whether a packet is serializing right now."""
        return self.sim.now < self.busy_until_ns

    def serialization_ns(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto the wire at line rate."""
        return max(1, int(round(size_bytes * 8 * 1e9 / self.rate_bps)))

    def send(self, pkt: Packet) -> bool:
        """Enqueue a packet for transmission.  Returns False on drop."""
        if self._arrive is None:
            raise RuntimeError(f"{self.name} is not connected")
        if not self._sched_enqueue(pkt):
            self.packets_dropped += 1
            if self._tracer is not None:
                self._tracer.on_drop(self.name, pkt, self.sim.now, reason="refused")
            return False
        if self._tracer is not None:
            self._tracer.on_enqueue(self.name, pkt, self.sim.now)
        if not self._wake_pending:
            now = self.sim.now
            free_at = self.busy_until_ns
            if now >= free_at:
                self._start_next(now)
            else:
                # First arrival to find the line mid-packet.
                self._wake_pending = True
                self._post(free_at - now, self._start_next, free_at)
        return True

    def _start_next(self, now: int) -> None:
        """Start serializing the scheduler's next packet; the line is
        free at ``now``, the current time (a wake carries it as its
        argument so the clock is not read again)."""
        pkt = self._sched_dequeue()
        if pkt is None:
            self._wake_pending = False
            return
        size = pkt.size_bytes
        cache = self._ser_cache
        tx_ns = cache.get(size)
        if tx_ns is None:
            tx_ns = self.serialization_ns(size)
            if len(cache) >= _SER_CACHE_MAX:
                # Clear-on-full keeps the bound O(1) with no recency
                # bookkeeping; entries are pure functions of size, so
                # recomputation cannot change any result.
                cache.clear()
            cache[size] = tx_ns
        if self.on_transmit:
            for hook in self.on_transmit:
                hook(pkt, now)
        if self._tracer is not None:
            self._tracer.on_dequeue(self.name, pkt, now)
            self._tracer.on_transmit(self.name, pkt, now, tx_ns)
        self.bytes_sent += size
        self.packets_sent += 1
        free_at = now + tx_ns
        self.busy_until_ns = free_at
        arrive = self._arrive
        if arrive is None:  # pragma: no cover - send() guards connectivity
            raise RuntimeError(f"{self.name} lost its peer mid-transmission")
        arrive(pkt, tx_ns + self.prop_delay_ns)
        if self.scheduler.packets_queued:
            # Work conservation: come back the instant the line frees.
            self._wake_pending = True
            self._post(tx_ns, self._start_next, free_at)
        else:
            self._wake_pending = False

    def queue_depth(self) -> Tuple[int, int]:
        """(packets, bytes) currently waiting in the scheduler."""
        return self.scheduler.packets_queued, self.scheduler.bytes_queued
