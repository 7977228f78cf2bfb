"""Buffer-manager interface.

A buffer manager implements the switch's *enqueue admission* policy for one
egress port: given an arriving packet and its service queue, decide whether
to accept it, accept-and-ECN-mark it, or drop it.  Managers observe port
state (queue lengths, total occupancy, weights, link rate, clock) through
the :class:`PortView` protocol, and may keep their own state (DynaQ's
dynamic thresholds, DCTCP-style marking state, ...).

Dequeue-time hooks exist for TCN, whose sojourn-time marking can only
happen when the packet leaves the queue.
"""

from __future__ import annotations

from typing import List, Optional, Protocol

from ..net.packet import Packet
from ..perf.config import active_config


class PortView(Protocol):
    """What a buffer manager may observe about its port."""

    buffer_bytes: int          # port buffer size B
    num_queues: int            # M
    link_rate_bps: int         # C

    def queue_bytes(self, index: int) -> int:
        """Current occupancy of service queue ``index``, in bytes."""
        ...

    def total_bytes(self) -> int:
        """Current occupancy of the whole port buffer, in bytes."""
        ...

    def queue_weights(self) -> List[float]:
        """Scheduler weights w_i (normalised by the manager as needed)."""
        ...

    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        ...


class Decision:
    """Outcome of an admission check.

    Decisions are immutable by convention: every consumer only reads the
    three fields.  That is what lets the fast path
    (:attr:`~repro.perf.config.PerfConfig.cached_decisions`) hand out
    shared singleton instances for the recurring outcomes instead of
    allocating two objects per packet (admit + dequeue hook).
    """

    __slots__ = ("accept", "mark", "reason")

    def __init__(self, accept: bool, mark: bool = False,
                 reason: str = "") -> None:
        self.accept = accept
        self.mark = mark
        self.reason = reason

    @classmethod
    def accepted(cls, mark: bool = False) -> "Decision":
        return cls(accept=True, mark=mark)

    @classmethod
    def dropped(cls, reason: str) -> "Decision":
        return cls(accept=False, reason=reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.accept:
            return "<accept+mark>" if self.mark else "<accept>"
        return f"<drop: {self.reason}>"


class BufferManager:
    """Base class for per-port buffer managers.

    Subclasses must implement :meth:`admit`.  ``attach`` is called once by
    the port before any traffic flows.
    """

    name = "base"

    #: The class whose ``admit`` declared the two fast-path contracts
    #: below.  EgressPort honours them only while ``type(manager).admit``
    #: is that class's current ``admit`` (a class-level wrapper included),
    #: so a subclass overriding ``admit`` (one that marks, say) is never
    #: bypassed unless it declares itself owner, both contracts checked.
    contract_owner: Optional[type] = None

    def __init__(self) -> None:
        self.port: Optional[PortView] = None
        self.drops = 0
        self.marks = 0
        self._queue_occupancy = None   # direct port state, set by attach
        self._direct_total = False
        # Inline-admission contract (fast path, read by EgressPort under
        # inline_hot_calls): when this is a list L, the manager
        # guarantees that ``admit(packet, q)`` is exactly an unmarked,
        # side-effect-free accept whenever
        # ``occupancy[q] + size <= L[q]`` and the port buffer has room
        # for ``size`` — so the port may skip the admit() call for such
        # packets.  Any other case still goes through admit().  Managers
        # whose accept path counts, marks, or otherwise mutates state
        # must leave this None; managers replacing their threshold list
        # wholesale must re-point this attribute at the new list.  Like
        # the drop-side contract below, it binds only the admit of
        # :attr:`contract_owner`.
        self.inline_admit_thresholds = None
        # Companion contract for the drop side: decisions listed here are
        # *repeat-pure* — ``admit()`` returning one of them read manager
        # and port state but mutated nothing except drop counters, so an
        # identical call (same queue, same size) with only repeat-pure
        # drops in between is guaranteed the same outcome; any other
        # outcome in between, a drop included, may have stolen threshold
        # or evicted packets.  EgressPort.send_many uses this to memoise
        # drop storms within one burst, re-applying the counters through
        # :meth:`repeat_drop` instead of re-deriving the decision.  Only
        # list shared singletons (identity is the memo key), and never a
        # decision whose path can mutate state (threshold steals,
        # evictions).
        self.pure_drop_decisions = ()
        # Fast path: pre-built singletons for the recurring outcomes.
        # None in reference mode, in which case every site allocates a
        # fresh Decision exactly as the pre-optimisation code did.
        if active_config().cached_decisions:
            self._accept: Optional[Decision] = Decision.accepted()
            self._drop_full: Optional[Decision] = Decision.dropped(
                "port buffer full")
        else:
            self._accept = None
            self._drop_full = None

    def attach(self, port: PortView) -> None:
        """Bind the manager to its port and initialise derived state.

        With :attr:`~repro.perf.config.PerfConfig.inline_hot_calls` on,
        admission code reads the port's occupancy state directly
        (``_queue_bytes`` list / ``_total_bytes`` int) instead of going
        through the PortView methods on every packet; ports that don't
        expose those internals (test fakes) fall back to the protocol.
        """
        self.port = port
        inline = active_config().inline_hot_calls
        self._queue_occupancy = (getattr(port, "_queue_bytes", None)
                                 if inline else None)
        self._direct_total = inline and hasattr(port, "_total_bytes")

    def bind_trace(self, trace, port_name: str) -> None:
        """Offer the manager the port's trace bus (called by the port
        before :meth:`attach` when the port has one).  The default ignores
        it; managers that publish telemetry (DynaQ's threshold exchanges)
        override this to pick the bus up unless one was already passed to
        their constructor."""

    # -- hooks ----------------------------------------------------------------

    def admit(self, packet: Packet, queue_index: int) -> Decision:
        """Decide the fate of ``packet`` arriving for ``queue_index``."""
        raise NotImplementedError

    def on_enqueued(self, packet: Packet, queue_index: int) -> None:
        """Called after a packet was appended to its queue."""

    def repeat_drop(self, decision: Decision) -> None:
        """Re-apply the counter effects of a memoised pure drop.

        Only ever called with a member of :attr:`pure_drop_decisions`;
        managers listing any must override this to bump exactly the
        counters their ``admit()`` bumps on that decision's path.
        """
        self.drops += 1

    def on_dequeue(self, packet: Packet, queue_index: int) -> Decision:
        """Called when a packet is pulled for transmission.

        Returning ``Decision.accepted(mark=True)`` CE-marks the departing
        packet (TCN); returning a drop discards it at dequeue time (the
        TCN *drop variant* discussed in the paper's §II-C).  The default
        forwards unconditionally.
        """
        return self._accept or Decision.accepted()

    # -- shared helpers ---------------------------------------------------------

    def _fair_share_fraction(self, queue_index: int) -> float:
        """``w_i / sum(w)`` for this port's configured weights."""
        weights = self.port.queue_weights()
        return weights[queue_index] / sum(weights)

    def _port_tail_drop(self, packet: Packet) -> Optional[Decision]:
        """Common final check: drop when the port buffer is full."""
        port = self.port
        total = (port._total_bytes if self._direct_total
                 else port.total_bytes())
        if total + packet.size > port.buffer_bytes:
            self.drops += 1
            return self._drop_full or Decision.dropped("port buffer full")
        return None
