"""Network nodes: the Switch and the Host chassis.

A :class:`Switch` is output-queued: ``receive`` looks up the egress port
for the packet's destination host and enqueues it there; all queueing
discipline lives in the port's scheduler.  A :class:`Host` owns one
uplink port (its NIC) and dispatches received packets to a handler
installed by the transport layer.

A port announces a packet to its downstream node when serialization
*starts*, with the delay until it arrives (:meth:`Node.arrive`); by
default that schedules :meth:`Node.receive` at the arrival time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.net.link import Port
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class Node:
    """Anything that can terminate a wire."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._post = sim.post

    def arrive(self, pkt: Packet, delay_ns: int) -> None:
        """``pkt`` reaches this node ``delay_ns`` from now."""
        self._post(delay_ns, self.receive, pkt)

    def receive(self, pkt: Packet) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class Switch(Node):
    """Output-queued switch with per-destination routing.

    ``routes`` maps a destination host id to the egress :class:`Port`.
    The port scheduler (WFQ by default in this reproduction) implements
    the QoS behavior; the switch itself is deliberately simple, matching
    the paper's "switches are simple and enforce the standard QoS using
    WFQ".
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.ports: List[Port] = []
        self.routes: Dict[int, Port] = {}
        self.packets_forwarded = 0
        self.packets_unrouted = 0

    def add_port(self, port: Port) -> Port:
        self.ports.append(port)
        return port

    def set_route(self, dst_host: int, port: Port) -> None:
        self.routes[dst_host] = port

    def receive(self, pkt: Packet) -> None:
        port = self.routes.get(pkt.dst)
        if port is None:
            self.packets_unrouted += 1
            return
        self.packets_forwarded += 1
        port.send(pkt)


class Host(Node):
    """End host: a NIC egress port plus a receive dispatcher.

    The transport layer registers itself via :attr:`handler`.  Host ids
    are the integers the topology assigns; packets address hosts by id.

    A transport for which nothing observes a packet's arrival itself may
    also install :attr:`on_arrival`: called as ``on_arrival(pkt,
    delay_ns)`` when the packet *starts* its last hop, it returns True
    to take the arrival over (posting whatever follows from it at the
    right time), in which case no ``receive`` event is scheduled and
    ``packets_received`` counts the packet one flight time early.
    """

    def __init__(self, sim: Simulator, host_id: int, name: Optional[str] = None) -> None:
        super().__init__(sim, name or f"host{host_id}")
        self.host_id = host_id
        self.nic: Optional[Port] = None
        self.handler: Optional[Callable[[Packet], None]] = None
        self.on_arrival: Optional[Callable[[Packet, int], bool]] = None
        self.packets_received = 0

    def attach_nic(self, port: Port) -> None:
        self.nic = port

    def send(self, pkt: Packet) -> bool:
        """Hand a packet to the NIC for transmission."""
        if self.nic is None:
            raise RuntimeError(f"{self.name} has no NIC attached")
        return self.nic.send(pkt)

    def arrive(self, pkt: Packet, delay_ns: int) -> None:
        """Offer the arrival to :attr:`on_arrival`, else schedule it."""
        on_arrival = self.on_arrival
        if on_arrival is not None and on_arrival(pkt, delay_ns):
            self.packets_received += 1
        else:
            self._post(delay_ns, self.receive, pkt)

    def receive(self, pkt: Packet) -> None:
        self.packets_received += 1
        if self.handler is not None:
            self.handler(pkt)
