"""``port_replay``: a seeded arrival plan fed into one DynaQ egress port.

The plan is three phases of arrivals held in flat ``array`` columns
(tick times, tick -> first packet, packet kind).  A kind is a (queue,
size) pair; packets of one kind are interchangeable, so each kind keeps
its own free list and the feeder never writes a packet field.

The same plan can be replayed into :class:`NullPort`, which hands every
packet straight to the sink: what that run costs is the feeder's own
share of a real run.
"""

from __future__ import annotations

import random
from array import array
from itertools import accumulate
from time import perf_counter
from typing import Any, List, NamedTuple

from repro.experiments.runner import buffer_factory
from repro.net.packet import Packet
from repro.net.port import EgressPort
from repro.queueing.schedulers.drr import DRRScheduler
from repro.sim.engine import Simulator
from repro.sim.units import gbps, kilobytes, microseconds

# The testbed wire (TestbedConfig): 1 GbE, 85 KB port buffer, rtt/4 per link.
RATE_BPS = gbps(1)
BUFFER_BYTES = kilobytes(85)
RTT_NS = microseconds(500)
PROP_DELAY_NS = RTT_NS // 4
NUM_QUEUES = 4
QUANTUM_BYTES = 1500.0

#: Wire sizes from the smallest frame to the MTU: per-packet cost shows
#: at the small end, byte accounting at the large end.
SIZES = (64, 128, 256, 512, 1024, 1500)
MTU_INDEX = len(SIZES) - 1

#: Arrivals per repetition at scale 1, split evenly over the phases.
BASE_ARRIVALS = 240_000
OVERLOAD = 1.6
BURST = 64


class Plan(NamedTuple):
    """Arrival plan: tick i sends packets ``starts[i]:starts[i+1]``."""

    times: array          # 'q', strictly increasing tick times (ns)
    starts: array         # 'l', len(times) + 1 offsets into kinds
    kinds: array          # 'B', queue * len(SIZES) + size index
    phases: List[List[Any]]  # [name, first tick, first packet]

    @property
    def arrivals(self) -> int:
        return len(self.kinds)

    @property
    def horizon_ns(self) -> int:
        """Last arrival plus time to drain a full buffer and the wire."""
        drain = BUFFER_BYTES * 8 * 1_000_000_000 // RATE_BPS
        return self.times[-1] + drain + 4 * PROP_DELAY_NS


def kind_of(queue: int, size_index: int) -> int:
    return queue * len(SIZES) + size_index


def _tx_ns(size: int) -> float:
    return size * 8 * 1e9 / RATE_BPS


def _stagger(rng: random.Random, total: int, ticks: List[int],
             bursts: List[List[int]], clock: int) -> int:
    """Four queues at 1.6x load, dropping out one by one (Fig. 5 shape).

    Queue q lives for the first ``1 - 0.15 q`` of the phase; a stopped
    queue's arrivals vanish, so the load steps 1.6 -> 1.2 -> 0.8 -> 0.4.
    """
    queues = rng.choices(range(NUM_QUEUES), k=total)
    sizes = rng.choices(range(len(SIZES)), k=total)
    widths = rng.choices((1, 2, 4, 8), k=total)
    mean_size = sum(SIZES) / len(SIZES)
    gap = _tx_ns(mean_size) / OVERLOAD
    cursor = 0
    for width in widths:
        if cursor >= total:
            break
        chunk = []
        for index in range(cursor, min(cursor + width, total)):
            queue = queues[index]
            if index < total * (1.0 - 0.15 * queue):
                chunk.append(kind_of(queue, sizes[index]))
        span = min(width, total - cursor)
        cursor += span
        clock += max(1, int(gap * span * rng.uniform(0.5, 1.5)))
        if chunk:
            ticks.append(clock)
            bursts.append(chunk)
    return clock


def _incast(rng: random.Random, total: int, ticks: List[int],
            bursts: List[List[int]], clock: int) -> int:
    """64-packet synchronized MTU bursts with jittered drain gaps.

    The gap is around one burst's drain time, so a batch of committed
    transmissions is sometimes cut by the next burst; a few small
    packets on another queue land inside the drain as well.
    """
    drain = _tx_ns(SIZES[MTU_INDEX]) * BURST
    sent = 0
    window = 0
    while sent < total:
        queue = window % NUM_QUEUES
        clock += 1
        ticks.append(clock)
        bursts.append([kind_of(queue, MTU_INDEX)] * BURST)
        sent += BURST
        gap = int(drain * rng.uniform(0.7, 1.4))
        for offset in sorted(rng.sample(range(1, gap), 3)):
            ticks.append(clock + offset)
            bursts.append([kind_of((queue + 1 + offset % 3) % NUM_QUEUES,
                                   0)])
            sent += 1
        clock += gap
        window += 1
    return clock


def _steal_storm(rng: random.Random, total: int, ticks: List[int],
                 bursts: List[List[int]], clock: int) -> int:
    """Two hot queues alternate every 512 arrivals at 1.6x load while a
    trickle keeps the other two active, so thresholds shuttle back and
    forth and Algorithm 1 runs on nearly every arrival."""
    gap = _tx_ns(SIZES[MTU_INDEX]) / OVERLOAD
    widths = rng.choices((1, 2, 4, 8), k=total)
    index = 0
    for width in widths:
        if index >= total:
            break
        chunk = []
        for _ in range(width):
            phase, slot = divmod(index, 512)
            if slot % 8 == 7:
                queue = 2 + (slot // 8) % 2
            else:
                queue = phase % 2
            chunk.append(kind_of(queue, MTU_INDEX))
            index += 1
        clock += max(1, int(gap * width * rng.uniform(0.9, 1.1)))
        ticks.append(clock)
        bursts.append(chunk)
    return clock


PHASES = (("fig05-stagger", _stagger), ("incast-burst", _incast),
          ("steal-storm", _steal_storm))


def build_plan(seed: int, scale: float = 1.0) -> Plan:
    """The arrival plan for ``seed``: same seed, same plan."""
    rng = random.Random(f"bench-port-replay:{seed}")
    per_phase = max(2048, int(BASE_ARRIVALS * scale) // len(PHASES))
    ticks: List[int] = []
    bursts: List[List[int]] = []
    first_ticks = []
    clock = 1_000
    for _name, generate in PHASES:
        first_ticks.append(len(ticks))
        clock = generate(rng, per_phase, ticks, bursts, clock)
        # Let the buffer drain so the next phase starts from idle.
        clock += int(_tx_ns(BUFFER_BYTES)) + 4 * PROP_DELAY_NS
    starts = array("l", accumulate(map(len, bursts), initial=0))
    kinds = array("B")
    for chunk in bursts:
        kinds.extend(chunk)
    phases = [[name, tick, starts[tick]]
              for (name, _), tick in zip(PHASES, first_ticks)]
    return Plan(array("q", ticks), starts, kinds, phases)


class Sink:
    """Counting delivery endpoint; recycles packets by kind."""

    def __init__(self, free: List[List[Packet]]) -> None:
        self.free = free
        self.received = 0

    def receive(self, packet: Packet) -> None:
        self.received += 1
        self.free[packet.flow_id].append(packet)

    def receive_many(self, packets: List[Packet]) -> None:
        # Counting only, so a batch's deliveries may arrive coalesced
        # (see EgressPort._deliver_batch's receive_many contract).
        self.received += len(packets)
        free = self.free
        for packet in packets:
            free[packet.flow_id].append(packet)


class NullPort:
    """The port-shaped nothing the harness-cost guard replays into."""

    dropped_packets = 0

    def __init__(self, sink: Sink) -> None:
        self._sink = sink

    def send(self, packet: Packet) -> None:
        self._sink.receive(packet)

    def send_many(self, packets: List[Packet]) -> None:
        self._sink.receive_many(packets)


class Feeder:
    """Replays a :class:`Plan` into ``port``, one sim event per tick.

    Each tick schedules its successor, so the pending-event population
    stays what a live source would give the port.  A packet the port
    refused is back on its free list before the tick returns.
    """

    def __init__(self, sim, port, plan: Plan,
                 free: List[List[Packet]]) -> None:
        self.sim = sim
        self.port = port
        self.plan = plan
        self.free = free
        self.sent = 0
        self._next = 0

    def start(self) -> None:
        self.sim.at(self.plan.times[0], self._tick)

    def _tick(self) -> None:
        plan = self.plan
        index = self._next
        self._next = index + 1
        low = plan.starts[index]
        high = plan.starts[index + 1]
        free = self.free
        port = self.port
        dropped = port.dropped_packets
        chunk = []
        for kind in plan.kinds[low:high]:
            try:
                chunk.append(free[kind].pop())
            except IndexError:
                chunk.append(new_packet(kind))
        if high - low == 1:
            port.send(chunk[0])
        else:
            port.send_many(chunk)
        self.sent += high - low
        if port.dropped_packets != dropped:
            now = self.sim.now
            for packet in chunk:
                if packet.enqueued_at != now:
                    free[packet.flow_id].append(packet)
        if self._next < len(plan.times):
            self.sim.at(plan.times[self._next], self._tick)


def feeder_seconds(plan: Plan) -> float:
    """Host seconds to replay ``plan`` into a :class:`NullPort`: the
    feeder, its tick events and the sink, and nothing else."""
    sim = Simulator()
    free = free_lists()
    Feeder(sim, NullPort(Sink(free)), plan, free).start()
    start = perf_counter()
    sim.run(until=plan.horizon_ns)
    return perf_counter() - start


def new_packet(kind: int) -> Packet:
    queue, size_index = divmod(kind, len(SIZES))
    return Packet(kind, "bench", "sink", SIZES[size_index],
                  service_class=queue)


def free_lists() -> List[List[Packet]]:
    return [[] for _ in range(NUM_QUEUES * len(SIZES))]


def make_port(sim, trace) -> EgressPort:
    """One DynaQ port, DRR x 4, on the testbed wire."""
    manager = buffer_factory("dynaq", rtt_ns=RTT_NS)()
    return EgressPort(
        sim, "bench->sink", rate_bps=RATE_BPS, prop_delay_ns=PROP_DELAY_NS,
        buffer_bytes=BUFFER_BYTES,
        scheduler=DRRScheduler([QUANTUM_BYTES] * NUM_QUEUES),
        buffer_manager=manager, trace=trace)
