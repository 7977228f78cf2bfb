"""Outside-in probes: a stopwatch simulator, a slice clock, a
port-collecting bus, the digest.

Everything here observes ``repro`` through public seams only.  The
simulator is handed to the experiment as ``sim=``, the bus as ``trace=``;
neither changes what is simulated.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional

from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

class StopwatchSimulator(Simulator):
    """A ``Simulator`` whose only addition is a stopwatch around ``run()``.

    ``run()`` is the base class's, arguments untouched: the horizon the
    program passes is the horizon ports see (batched link advance caps a
    batch at it).  Recorded: the first entry, the last exit, and the time
    spent inside ``run()`` over all calls.
    """

    def __init__(self) -> None:
        super().__init__()
        self.first_entry: Optional[float] = None
        self.last_exit: Optional[float] = None
        self.inside_s = 0.0

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        entry = perf_counter()
        if self.first_entry is None:
            self.first_entry = entry
        try:
            super().run(until, max_events)
        finally:
            self.last_exit = perf_counter()
            self.inside_s += self.last_exit - entry


class SliceClock:
    """Reads the host clock at fixed simulated times.

    One no-op event every ``slice_ns`` of simulated time, each scheduling
    the next.  Mark k fires after the same simulated events in every
    repetition of one seed, so the host time between two marks is the
    cost of identical work and the harness can take, per slice, the
    quietest repetition.  The marks touch no port and no horizon; what
    they add is themselves: one pending event, and one executed event
    per slice, the same in every repetition (at the slice lengths
    bench.workloads uses, 1 event in 740 on fct_star, 420 on
    port_replay, 185 on fct_observed; under 0.1 % of the host time).
    """

    def __init__(self, sim: Simulator, slice_ns: int) -> None:
        self.sim = sim
        self.slice_ns = slice_ns
        self.marks: List[float] = []
        sim.at(sim.now + slice_ns, self._mark)

    def _mark(self) -> None:
        self.marks.append(perf_counter())
        self.sim.at(self.sim.now + self.slice_ns, self._mark)


def slices(begin: float, marks: List[float], end: float) -> List[float]:
    """The consecutive intervals ``begin -> marks... -> end``."""
    edges = [begin] + marks + [end]
    return [later - earlier for earlier, later in zip(edges, edges[1:])]


class PortBus(TraceBus):
    """A ``TraceBus`` that remembers the ports built around it.

    Every ``EgressPort`` registers its flag-refresh watcher on the bus it
    is given; the bound method's owner is the port.  One call per port at
    construction time, none on the packet path.
    """

    def __init__(self) -> None:
        super().__init__()
        self.ports: List[Any] = []

    def add_watcher(self, callback) -> None:
        super().add_watcher(callback)
        owner = getattr(callback, "__self__", None)
        if owner is not None and hasattr(owner, "enqueued_packets"):
            self.ports.append(owner)


def port_counters(ports: Iterable[Any]) -> List[List[Any]]:
    """``[name, enqueued, dropped, transmitted, threshold_moves]`` per port."""
    rows = []
    for port in ports:
        moves = getattr(port.buffer_manager, "threshold_moves", 0)
        rows.append([port.name, port.enqueued_packets, port.dropped_packets,
                     port.transmitted_packets, moves])
    return rows


def offered_packets(counters: List[List[Any]]) -> int:
    """Packets offered to egress ports: enqueued + dropped, all ports."""
    return sum(row[1] + row[2] for row in counters)


def sim_digest(counters: List[List[Any]], events_executed: int,
               fct_ns: Iterable[Any]) -> str:
    """sha256 over the canonical JSON of one world's operation counters."""
    document = {"ports": sorted(counters), "events": events_executed,
                "fct_ns": [list(item) for item in fct_ns]}
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def audit_world(sim: Simulator, ports: Iterable[Any]) -> List[str]:
    """Run the repo's own cold-path audits; returns problem strings."""
    problems: List[str] = []
    for port in ports:
        problems += [f"{port.name}: {text}"
                     for text in port.audit_conservation()]
        audit = getattr(port.buffer_manager, "audit_thresholds", None)
        if audit is not None:
            text = audit()
            if text:
                problems.append(f"{port.name}: {text}")
    problems += [f"sim: {text}" for text in sim.audit_counters()]
    return problems


def transport_counters(ports: Iterable[Any]) -> Dict[str, int]:
    """Sender counters of every host reachable as a port's peer."""
    sent = retx = timeouts = 0
    seen = set()
    for port in ports:
        senders = getattr(port.peer, "senders", None)
        if senders is None or id(port.peer) in seen:
            continue
        seen.add(id(port.peer))
        for sender in senders.values():
            sent += sender.packets_sent
            retx += sender.retransmissions
            timeouts += sender.timeouts
    return {"packets_sent": sent, "retransmissions": retx,
            "timeouts": timeouts}
