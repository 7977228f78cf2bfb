"""Switch node: forwarding + per-port buffering.

A switch owns one :class:`~repro.net.port.EgressPort` per output link plus
a forwarding table.  Receiving a packet is a table lookup followed by an
egress-port ``send`` — all buffering, scheduling, and the buffer-management
scheme under test live in the port.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.engine import Simulator
from .packet import Packet
from .port import EgressPort
from .routing import ForwardingTable


class Switch:
    """An output-queued switch."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: Dict[str, EgressPort] = {}
        self.table = ForwardingTable(name)
        self._single_routes = self.table.single_routes
        self.received_packets = 0

    def add_port(self, port: EgressPort) -> EgressPort:
        """Register an egress port (keyed by its name)."""
        self.ports[port.name] = port
        return self.ports[port.name]

    def add_route(self, destination: str, port: EgressPort) -> None:
        """Forward packets for ``destination`` out of ``port``."""
        if port.name not in self.ports:
            self.add_port(port)
        self.table.add_route(destination, port)

    def receive(self, packet: Packet) -> None:
        """Forward an arriving packet to the proper egress port."""
        self.received_packets += 1
        port = self._single_routes.get(packet.dst)
        if port is None:
            # ECMP group (hashed) or unknown destination (RoutingError).
            port = self.table.lookup(packet)
        port.send(packet)

    def port_list(self) -> List[EgressPort]:
        """All egress ports, in insertion order."""
        return list(self.ports.values())
