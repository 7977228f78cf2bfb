"""Empirical competitive-ratio harness for shared-buffer policies.

Every buffer policy in the registry decides, packet by packet, what to
keep in one shared buffer — exactly the online problem the competitive
analysis literature studies for shared-memory switches.  This module
measures how far each policy lands from a clairvoyant offline bound on
*deterministic adversarial* arrival patterns:

* an **arena**: a slotted shared-memory switch model.  ``N`` output
  ports share one buffer of ``B`` unit cells; each port transmits one
  cell per slot.  The policy under test is an ordinary
  :class:`~repro.queueing.base.BufferManager` observing the arena
  through the same :class:`~repro.queueing.base.PortView` protocol the
  event-driven testbed uses ("queues" = output ports), including
  ``evict_tail`` for push-out policies (LQD, SEG, DynaQ-Evict).
* an **adversary catalog** (:data:`ADVERSARIES`): deterministic arrival
  generators — bursty one-queue floods, alternating fill-drain cycles,
  the LQD lower-bound style park-then-overload construction — plus a
  seeded random adversary.
* an **offline reference bound** (:func:`clairvoyant_bound`): a
  composite relaxation upper-bounding the cells *any* clairvoyant
  policy could deliver — the minimum of total arrivals, the sum of
  per-port greedy runs with a private buffer ``B``, and the best
  single-cut bound ``served(0..t) + B + arrivals(t+1..)``.  The bound
  is a relaxation, so measured ratios upper-bound the true competitive
  ratio; ratios are always >= 1.

The empirical ratio of a run is ``bound / delivered``.  LQD is proven
at most 1.5-competitive for this model (arXiv:1207.1141); the report
asserts its measured ratio never exceeds that and flags the adversary
DynaQ suffers most under.  Grid cells fan out through the parallel
executor ("competitive" job kind) and reassemble byte-identically, so
``repro competitive --jobs N`` output matches a serial run.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from ..metrics.stats import summarize
from ..net.packet import Packet
from ..sim.errors import ConfigurationError
from ..sim.trace import TOPIC_COMPETITIVE_ROUND, TraceBus
from .runner import scheme

#: One buffer cell, in bytes.  Policies reason in bytes; the arena
#: reasons in cells.  Any constant works — cells never fragment.
CELL_BYTES = 100

#: Simulated nanoseconds per arena slot (feeds ``PortView.now()`` for
#: time-based policies; one slot is one link-transmission time).
SLOT_NS = 1_000

#: Default policies of the report grid: the paper's scheme next to the
#: three competitive comparators and the plain tail-drop floor.
DEFAULT_POLICIES = ("dynaq", "lqd", "fb", "bshare", "seg", "dt",
                    "besteffort")


class ArenaPort(object):
    """Shared-memory switch the policy observes as a ``PortView``.

    ``num_queues`` output ports share ``buffer_cells`` cells.  The
    private ``_queue_bytes`` list and ``_total_bytes`` int are exposed
    so the managers' direct occupancy reads work here exactly as they
    do on :class:`~repro.net.port.EgressPort` — FAST and REFERENCE perf
    configs observe identical state.
    """

    def __init__(self, num_queues: int, buffer_cells: int,
                 link_rate_bps: int = 10 ** 9) -> None:
        self.num_queues = num_queues
        self.buffer_bytes = buffer_cells * CELL_BYTES
        self.link_rate_bps = link_rate_bps
        self._queue_bytes = [0] * num_queues
        self._total_bytes = 0
        self._queues: List[deque] = [deque() for _ in range(num_queues)]
        self._now_ns = 0
        self.dropped_packets = 0

    # -- PortView protocol ------------------------------------------------------

    def queue_bytes(self, index: int) -> int:
        return self._queue_bytes[index]

    def total_bytes(self) -> int:
        return self._total_bytes

    def queue_weights(self) -> List[float]:
        return [1.0] * self.num_queues

    def now(self) -> int:
        return self._now_ns

    # -- datapath ---------------------------------------------------------------

    def enqueue(self, packet: Packet, queue_index: int) -> None:
        self._queues[queue_index].append(packet)
        self._queue_bytes[queue_index] += packet.size
        self._total_bytes += packet.size

    def transmit(self, queue_index: int) -> Optional[Packet]:
        queue = self._queues[queue_index]
        if not queue:
            return None
        packet = queue.popleft()
        self._queue_bytes[queue_index] -= packet.size
        self._total_bytes -= packet.size
        return packet

    def evict_tail(self, queue_index: int) -> Optional[Packet]:
        """Push-out hook for LQD / SEG / DynaQ-Evict style policies."""
        queue = self._queues[queue_index]
        if not queue:
            return None
        packet = queue.pop()
        self._queue_bytes[queue_index] -= packet.size
        self._total_bytes -= packet.size
        self.dropped_packets += 1
        return packet

    def backlog_cells(self) -> int:
        return self._total_bytes // CELL_BYTES


class ArenaResult(NamedTuple):
    """One policy's run over one arrival pattern."""

    delivered: int       # cells transmitted, horizon plus final drain
    arrivals: int        # cells the adversary offered
    dropped: int         # admission drops plus push-outs
    slots: int           # horizon length (excluding the drain)


def run_arena(policy: str, arrivals: Sequence[Sequence[int]], *,
              buffer_cells: int, rtt_ns: int = 40_000) -> ArenaResult:
    """Drive ``policy`` through the slotted arena over ``arrivals``.

    ``arrivals[t][p]`` is the number of cells arriving for port ``p``
    in slot ``t``.  Each slot admits arrivals (ports in index order,
    cells one at a time), then transmits one cell per non-empty port;
    after the horizon the buffer drains to empty, and every transmitted
    cell counts as delivered.
    """
    if not arrivals or not arrivals[0]:
        raise ConfigurationError("arrivals must cover >= 1 slot and port")
    num_queues = len(arrivals[0])
    spec = scheme(policy)
    manager = spec.make(rtt_ns=rtt_ns)
    port = ArenaPort(num_queues, buffer_cells)
    manager.attach(port)

    delivered = 0
    offered = 0
    dropped = 0
    flow = 0
    for slot, row in enumerate(arrivals):
        port._now_ns = slot * SLOT_NS
        for queue_index, count in enumerate(row):
            for _ in range(count):
                offered += 1
                flow += 1
                packet = Packet(flow, "adv", f"p{queue_index}",
                                CELL_BYTES, service_class=queue_index,
                                created_at=port._now_ns)
                before = port.dropped_packets
                decision = manager.admit(packet, queue_index)
                dropped += port.dropped_packets - before  # push-outs
                if decision.accept:
                    port.enqueue(packet, queue_index)
                    manager.on_enqueued(packet, queue_index)
                else:
                    dropped += 1
        for queue_index in range(num_queues):
            packet = port.transmit(queue_index)
            if packet is None:
                continue
            verdict = manager.on_dequeue(packet, queue_index)
            if verdict.accept:
                delivered += 1
            else:
                dropped += 1  # dequeue-time drop variants (TCN-drop)
    # Final drain: the remaining backlog leaves at one cell per port
    # per slot.  Bounded by the buffer size, so this always terminates.
    slot = len(arrivals)
    while port._total_bytes > 0:
        port._now_ns = slot * SLOT_NS
        slot += 1
        for queue_index in range(num_queues):
            packet = port.transmit(queue_index)
            if packet is None:
                continue
            verdict = manager.on_dequeue(packet, queue_index)
            if verdict.accept:
                delivered += 1
            else:
                dropped += 1
    return ArenaResult(delivered, offered, dropped, len(arrivals))


# ---------------------------------------------------------------------------
# Offline clairvoyant reference bound
# ---------------------------------------------------------------------------

def clairvoyant_bound(arrivals: Sequence[Sequence[int]],
                      buffer_cells: int) -> int:
    """Upper bound on cells *any* clairvoyant policy could deliver.

    The composite of three valid relaxations (a minimum of upper bounds
    is an upper bound):

    1. total arrivals — nothing is delivered twice;
    2. ``sum_p greedy_p`` — each port run alone with a *private* buffer
       of ``B`` cells and greedy admission, which dominates any share
       of the real shared buffer the port could have received;
    3. ``min_t [served(0..t) + B + arrivals(t+1..)]`` — deliveries up
       to slot ``t`` cannot beat the per-port greedy prefix, and
       everything after ``t`` was either buffered at ``t`` (<= ``B``)
       or arrives later.

    Relaxation 2 alone is wildly loose under simultaneous floods (every
    port cannot privately own ``B``); the cut in 3 restores the shared
    capacity there.  The composite is still a relaxation — measured
    ratios upper-bound the true competitive ratio.
    """
    if not arrivals or not arrivals[0]:
        raise ConfigurationError("arrivals must cover >= 1 slot and port")
    num_queues = len(arrivals[0])
    horizon = len(arrivals)
    # Per-port greedy with a private buffer, recording the cumulative
    # cells served by the end of each slot.
    served_prefix = [0] * horizon   # summed over ports
    greedy_total = 0
    for port in range(num_queues):
        backlog = 0
        served = 0
        for slot in range(horizon):
            backlog = min(backlog + arrivals[slot][port], buffer_cells)
            if backlog:
                backlog -= 1
                served += 1
            served_prefix[slot] += served
        greedy_total += served + backlog  # final drain
    total_arrivals = sum(sum(row) for row in arrivals)
    bound = min(total_arrivals, greedy_total)
    remaining = total_arrivals
    for slot in range(horizon):
        remaining -= sum(arrivals[slot])
        bound = min(bound,
                    served_prefix[slot] + buffer_cells + remaining)
    return bound


# ---------------------------------------------------------------------------
# Adversary catalog
# ---------------------------------------------------------------------------

Generator = Callable[[int, int, int, random.Random], List[List[int]]]


class AdversarySpec(NamedTuple):
    """One adversarial arrival generator."""

    name: str
    generate: Generator                      # (queues, cells, horizon, rng)
    default_horizon: Callable[[int, int], int]   # (queues, cells) -> slots
    seeded: bool                             # does the rng matter?


def _burst_flood(num_queues: int, buffer_cells: int, horizon: int,
                 rng: random.Random) -> List[List[int]]:
    """Port 0 takes periodic 2B-cell floods; the rest trickle 1/slot."""
    rows = []
    period = max(buffer_cells, 1)
    for slot in range(horizon):
        row = [0] + [1] * (num_queues - 1)
        if slot % period == 0:
            row[0] = 2 * buffer_cells
        rows.append(row)
    return rows


def _fill_drain(num_queues: int, buffer_cells: int, horizon: int,
                rng: random.Random) -> List[List[int]]:
    """All ports flood at 2/slot, then fall silent, alternating.

    The silent phase lasts ``B / N`` slots — long enough that only a
    policy that kept the backlog spread across ports stays
    work-conserving through it, short enough that a clairvoyant policy
    never idles (which keeps the reference bound tight).
    """
    fill = max(buffer_cells, 2)
    drain = max(buffer_cells // max(num_queues, 1), 1)
    period = fill + drain
    rows = []
    for slot in range(horizon):
        active = (slot % period) < fill
        rows.append([2 if active else 0] * num_queues)
    return rows


def _lqd_lower_bound(num_queues: int, buffer_cells: int, horizon: int,
                     rng: random.Random) -> List[List[int]]:
    """Park-then-overload: the LQD lower-bound style construction.

    Slot 0 bursts ``B`` cells to *every* port (only ``B`` fit in
    total), then all ports fall silent while the admitted backlog
    drains, then every port is overloaded at 2/slot to the horizon.
    The silent gap between drain and overload is what the offline
    relaxation cannot see through: the per-port greedy bound keeps
    every port busy straight through it, so the measured ratio on this
    instance stays well above 1.2 — a canary pinning the harness's
    sensitivity (a softened bound or arena would drive it to 1.0).
    """
    rows = [[0] * num_queues for _ in range(horizon)]
    for port in range(num_queues):
        rows[0][port] = buffer_cells
    overload_start = min((3 * buffer_cells) // max(num_queues, 1),
                         max(horizon - 1, 0))
    for slot in range(overload_start, horizon):
        for port in range(num_queues):
            rows[slot][port] = 2
    return rows


def _random_adversary(num_queues: int, buffer_cells: int, horizon: int,
                      rng: random.Random) -> List[List[int]]:
    """Seeded random overload: every port draws 0-3 cells per slot.

    The mean load (1.5x capacity) keeps the buffer contended without
    the long silences that would loosen the greedy relaxation.
    """
    return [[rng.randint(0, 3) for _ in range(num_queues)]
            for _ in range(horizon)]


def _default_horizon(num_queues: int, buffer_cells: int) -> int:
    return 8 * max(buffer_cells, 4)


def _lqd_horizon(num_queues: int, buffer_cells: int) -> int:
    # Park (B/N slots), gap, then an overload phase of ~2B/N slots.
    return (5 * max(buffer_cells, 4)) // max(num_queues, 1) + 1


ADVERSARIES: Dict[str, AdversarySpec] = {
    "burst-flood": AdversarySpec(
        "burst-flood", _burst_flood, _default_horizon, False),
    "fill-drain": AdversarySpec(
        "fill-drain", _fill_drain, _default_horizon, False),
    "lqd-lower-bound": AdversarySpec(
        "lqd-lower-bound", _lqd_lower_bound, _lqd_horizon, False),
    "random": AdversarySpec(
        "random", _random_adversary, _default_horizon, True),
}


def adversary_names() -> List[str]:
    """All registered adversary keys."""
    return sorted(ADVERSARIES)


def adversary(name: str) -> AdversarySpec:
    """Look up an adversary, mirroring :func:`~.runner.scheme` errors."""
    key = name.lower()
    if key not in ADVERSARIES:
        raise ConfigurationError(
            f"unknown adversary {name!r}; known: {sorted(ADVERSARIES)}")
    return ADVERSARIES[key]


def generate_arrivals(name: str, *, num_queues: int, buffer_cells: int,
                      horizon: int = 0, seed: int = 1) -> List[List[int]]:
    """The adversary's arrival grid (``horizon=0``: its own default)."""
    spec = adversary(name)
    if num_queues < 2:
        raise ConfigurationError(
            f"the arena needs >= 2 ports, got {num_queues}")
    if buffer_cells < num_queues:
        raise ConfigurationError(
            f"buffer_cells must be >= num_queues "
            f"({num_queues}), got {buffer_cells}")
    slots = horizon if horizon > 0 else spec.default_horizon(
        num_queues, buffer_cells)
    return spec.generate(num_queues, buffer_cells, slots,
                         random.Random(seed))


# ---------------------------------------------------------------------------
# Grid cells and the report
# ---------------------------------------------------------------------------

def run_cell(policy: str, adversary_name: str, buffer_cells: int, *,
             num_queues: int = 4, horizon: int = 0, rounds: int = 3,
             seed: int = 1) -> Dict[str, Any]:
    """One grid cell: ``rounds`` arena runs of one policy/adversary pair.

    Deterministic adversaries replay the identical pattern per round
    (zero-width CI); the seeded random adversary derives round seeds
    ``seed + i``.  The result is a plain JSON-able dict so the parallel
    executor's checkpoint replay decodes it bit-for-bit.
    """
    spec = adversary(adversary_name)
    ratios: List[float] = []
    delivered: List[int] = []
    bounds: List[int] = []
    dropped: List[int] = []
    for index in range(max(rounds, 1)):
        round_seed = seed + index if spec.seeded else seed
        arrivals = generate_arrivals(
            adversary_name, num_queues=num_queues,
            buffer_cells=buffer_cells, horizon=horizon, seed=round_seed)
        result = run_arena(policy, arrivals, buffer_cells=buffer_cells)
        bound = clairvoyant_bound(arrivals, buffer_cells)
        if result.delivered <= 0:
            raise ConfigurationError(
                f"adversary {adversary_name!r} starved policy "
                f"{policy!r}: nothing was delivered")
        ratios.append(bound / result.delivered)
        delivered.append(result.delivered)
        bounds.append(bound)
        dropped.append(result.dropped)
    return {
        "policy": policy,
        "adversary": adversary_name,
        "buffer_cells": buffer_cells,
        "num_queues": num_queues,
        "rounds": len(ratios),
        "ratios": ratios,
        "delivered": delivered,
        "bounds": bounds,
        "dropped": dropped,
    }


class CompetitiveReport(NamedTuple):
    """The full policy x adversary x buffer-size grid."""

    policies: List[str]
    adversaries: List[str]
    buffer_sizes: List[int]
    cells: List[Dict[str, Any]]     # one run_cell dict per grid point

    def cell(self, policy: str, adversary_name: str,
             buffer_cells: int) -> Optional[Dict[str, Any]]:
        for entry in self.cells:
            if (entry["policy"] == policy
                    and entry["adversary"] == adversary_name
                    and entry["buffer_cells"] == buffer_cells):
                return entry
        return None

    def worst_adversary(self, policy: str):
        """``(adversary, max ratio)`` over the policy's grid cells."""
        worst: Optional[str] = None
        worst_ratio = 0.0
        for entry in self.cells:
            if entry["policy"] != policy:
                continue
            ratio = max(entry["ratios"])
            if ratio > worst_ratio:
                worst = entry["adversary"]
                worst_ratio = ratio
        return worst, worst_ratio

    def violations(self, policy: str, limit: float) -> List[str]:
        """Human-readable cells where ``policy`` exceeded ``limit``."""
        problems = []
        for entry in self.cells:
            if entry["policy"] != policy:
                continue
            ratio = max(entry["ratios"])
            if ratio > limit:
                problems.append(
                    f"{policy} x {entry['adversary']} "
                    f"@ B={entry['buffer_cells']}: ratio {ratio:.3f} "
                    f"> {limit}")
        return problems


def run_competitive(policies: Sequence[str],
                    adversaries: Sequence[str],
                    buffer_sizes: Sequence[int], *,
                    num_queues: int = 4, horizon: int = 0,
                    rounds: int = 3, seed: int = 1,
                    jobs: int = 1, retries: int = 0,
                    checkpoint=None, resume: bool = False,
                    trace: Optional[TraceBus] = None
                    ) -> CompetitiveReport:
    """The full grid through the parallel executor, in grid order.

    Serial (``jobs=1``) and parallel runs marshal every cell through
    the same JSON encoding and reassemble in grid order, so the report
    — and the rendered table — is byte-identical either way.  Trace
    events on ``competitive.round`` are published here in the parent,
    one per finished round, with a deterministic sequence number as
    their time, after the grid completes (workers cannot publish
    across the process boundary).
    """
    from .parallel import JobSpec, job_key, parallel_map

    policies = list(policies)
    adversaries = list(adversaries)
    buffer_sizes = list(buffer_sizes)
    if not policies or not adversaries or not buffer_sizes:
        raise ConfigurationError(
            "the competitive grid needs >= 1 policy, adversary, and "
            "buffer size")
    for name in policies:
        scheme(name)       # fail fast with the valid-policy list
    for name in adversaries:
        adversary(name)
    specs = []
    for policy in policies:
        for adversary_name in adversaries:
            for buffer_cells in buffer_sizes:
                params = {
                    "policy": policy, "adversary": adversary_name,
                    "buffer_cells": buffer_cells,
                    "num_queues": num_queues, "horizon": horizon,
                    "rounds": rounds, "seed": seed,
                }
                label = f"{policy}x{adversary_name}@{buffer_cells}"
                specs.append(JobSpec(
                    job_key("competitive", params, label=label),
                    "competitive", params, seed=seed))
    outcomes = parallel_map(specs, jobs=jobs, retries=retries,
                            checkpoint=checkpoint, resume=resume,
                            trace=trace)
    cells: List[Dict[str, Any]] = []
    sequence = 0
    for outcome in outcomes:
        if not outcome.ok:
            raise ConfigurationError(
                f"competitive cell {outcome.key!r} failed: "
                f"{outcome.error}")
        cells.append(outcome.value)
        if trace is not None:
            entry = outcome.value
            for index, ratio in enumerate(entry["ratios"]):
                sequence += 1
                trace.publish(
                    TOPIC_COMPETITIVE_ROUND, time=sequence,
                    detail=(f"{entry['policy']} x {entry['adversary']} "
                            f"B={entry['buffer_cells']} "
                            f"round={index} ratio={ratio:.4f}"))
    return CompetitiveReport(policies, adversaries, buffer_sizes, cells)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def report_lines(report: CompetitiveReport, *,
                 lqd_limit: float = 1.5) -> List[str]:
    """The report table plus worst-adversary and assertion summaries."""
    lines = [
        "empirical competitive ratios "
        "(bound / delivered, mean over rounds +- CI95)",
        "policy".ljust(12) + "adversary".ljust(18) + "B(cells)".rjust(9)
        + "ratio".rjust(8) + "ci95".rjust(8) + "delivered".rjust(11)
        + "bound".rjust(8),
    ]
    for entry in report.cells:
        stats = summarize(entry["ratios"])
        lines.append(
            entry["policy"].ljust(12)
            + entry["adversary"].ljust(18)
            + str(entry["buffer_cells"]).rjust(9)
            + f"{stats.mean:.3f}".rjust(8)
            + f"{stats.ci95:.3f}".rjust(8)
            + str(max(entry["delivered"])).rjust(11)
            + str(max(entry["bounds"])).rjust(8))
    lines.append("")
    for policy in report.policies:
        worst, ratio = report.worst_adversary(policy)
        if worst is not None:
            flag = "  <- worst adversary" if policy == "dynaq" else ""
            lines.append(f"{policy}: worst adversary {worst} "
                         f"(ratio {ratio:.3f}){flag}")
    if "lqd" in report.policies:
        problems = report.violations("lqd", lqd_limit)
        if problems:
            lines.append("")
            lines.append(f"LQD exceeded its {lqd_limit}-competitive "
                         "guarantee:")
            lines.extend("  " + line for line in problems)
        else:
            lines.append(f"lqd: all ratios <= {lqd_limit} "
                         "(proven guarantee holds)")
    return lines
