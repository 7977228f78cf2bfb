"""Packet model.

A single packet class serves data segments and ACKs.  Fields mirror the
header bits the paper's mechanisms read:

* ``service_class`` — the DSCP-derived traffic class; the egress-port
  classifier maps it to a service queue index.  PIAS demotion rewrites it
  per-packet (first 100 KB of a flow ride the high-priority class).
* ``ecn_capable`` / ``ecn_ce`` — the two ECN bits: ECT and CE.  ECN-based
  schemes (TCN, MQ-ECN, PMSB, Per-Queue ECN, DynaQ's ECN mode) set CE;
  DCTCP receivers echo it back via ``ece`` on ACKs.
"""

from __future__ import annotations

from typing import Optional

# Wire sizes, in bytes.  The testbed uses a 1500 B MTU; the 100 Gbps
# simulations enable jumbo frames (9000 B), as in the paper.
HEADER_BYTES = 40      # IPv4 + TCP headers, no options
MTU_BYTES = 1500
JUMBO_MTU_BYTES = 9000
ACK_BYTES = HEADER_BYTES


class Packet:
    """One simulated packet (data segment or ACK)."""

    __slots__ = (
        "flow_id", "src", "dst", "size", "seq", "end_seq",
        "service_class", "priority", "ecn_capable", "ecn_ce",
        "is_ack", "ack_seq", "ece", "ts_echo",
        "retransmitted", "created_at", "enqueued_at", "corrupted",
    )

    def __init__(self, flow_id: int, src: str, dst: str, size: int, *,
                 seq: int = 0, end_seq: int = 0, service_class: int = 0,
                 ecn_capable: bool = False, is_ack: bool = False,
                 ack_seq: int = 0, created_at: int = 0) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size                  # total wire size, bytes
        self.seq = seq                    # first payload byte offset
        self.end_seq = end_seq            # one past last payload byte
        self.service_class = service_class
        self.priority = 0                 # pFabric priority (lower wins)
        self.ecn_capable = ecn_capable
        self.ecn_ce = False               # CE codepoint (set by switches)
        self.is_ack = is_ack
        self.ack_seq = ack_seq            # cumulative ACK (ACKs only)
        self.ece = False                  # ECN-echo flag (ACKs only)
        self.ts_echo: Optional[int] = None  # echoed send timestamp (ACKs)
        self.retransmitted = False
        self.created_at = created_at
        self.enqueued_at = 0              # set by the port at enqueue time
        self.corrupted = False            # set by a corruption fault in flight

    @property
    def payload(self) -> int:
        """Payload bytes carried (0 for pure ACKs)."""
        return self.end_seq - self.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return (f"<{kind} flow={self.flow_id} {self.src}->{self.dst} "
                f"seq={self.seq}:{self.end_seq} size={self.size} "
                f"cls={self.service_class}>")
