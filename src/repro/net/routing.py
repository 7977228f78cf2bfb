"""Forwarding tables and ECMP.

Switches forward by destination host name.  An entry maps a destination to
one **or more** candidate egress ports; with several candidates the switch
picks one by hashing the flow five-tuple surrogate ``(flow_id, src, dst)``
with a per-switch salt — Equal-Cost Multi-Path exactly as the leaf-spine
simulations use it.  The hash is the process-independent
:func:`~repro.sim.randomness.stable_hash`, so path choices reproduce across
runs.
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.errors import RoutingError
from ..sim.randomness import stable_hash
from .packet import Packet


class ForwardingTable:
    """Destination-keyed next-hop table with ECMP groups."""

    def __init__(self, switch_name: str) -> None:
        self.switch_name = switch_name
        self._routes: Dict[str, List] = {}
        #: destination -> port for the groups of exactly one port, which
        #: need no hash: the switch forwards those without a lookup().
        self.single_routes: Dict[str, object] = {}

    def add_route(self, destination: str, port) -> None:
        """Append ``port`` to the ECMP group for ``destination``."""
        ports = self._routes.setdefault(destination, [])
        ports.append(port)
        if len(ports) == 1:
            self.single_routes[destination] = port
        else:
            self.single_routes.pop(destination, None)

    def lookup(self, packet: Packet):
        """Pick the egress port for ``packet`` (ECMP by flow hash)."""
        ports = self._routes.get(packet.dst)
        if not ports:
            raise RoutingError(
                f"{self.switch_name}: no route to {packet.dst!r}")
        if len(ports) == 1:
            return ports[0]
        index = stable_hash(self.switch_name, packet.flow_id,
                            packet.src, packet.dst) % len(ports)
        return ports[index]

    def destinations(self) -> List[str]:
        """All destinations this table can forward to (for validation)."""
        return sorted(self._routes)
