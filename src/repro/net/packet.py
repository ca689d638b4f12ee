"""Wire units: messages and frames.

A :class:`Message` is what a protocol endpoint sends; NICs fragment it into
:class:`Frame` units at the MTU of the carrying protocol (GM fragments at
4 KB; the Ethernet emulation carries 8 KB IP fragments — Section 5), and the
receiving NIC reassembles. Headers are modelled as wire bytes, not parsed
structures; ``data`` carries the logical payload object end-to-end.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class MsgKind(enum.Enum):
    """Wire-level message kinds the NIC dispatches on."""

    GM_SEND = "gm-send"          # messaging layer send -> posted receive
    RDMA_PUT = "rdma-put"        # initiator pushes data to remote memory
    RDMA_PUT_ACK = "rdma-put-ack"
    RDMA_GET_REQ = "rdma-get-req"
    RDMA_GET_RESP = "rdma-get-resp"
    RDMA_FAULT = "rdma-fault"    # NIC-to-NIC recoverable exception
    ETH = "eth"                  # Ethernet emulation (UDP/IP path)


#: Message kinds processed entirely on the NIC (no host involvement).
NIC_ONLY_KINDS = frozenset({
    MsgKind.RDMA_PUT, MsgKind.RDMA_PUT_ACK, MsgKind.RDMA_GET_REQ,
    MsgKind.RDMA_GET_RESP, MsgKind.RDMA_FAULT,
})

_msg_ids = itertools.count(1)


def reset_msg_ids() -> None:
    """Restart message-id allocation from 1 (called per fresh cluster).

    Message ids only need to be unique within one simulation — they key
    per-NIC pending-RDMA maps and per-port reassembly state. Restarting
    the counter when a new cluster is wired keeps same-seed runs
    byte-identical in trace and telemetry output even when several runs
    share one process (campaign workers, tests).
    """
    global _msg_ids
    _msg_ids = itertools.count(1)


@dataclass
class Message:
    """One logical transfer between two NICs."""

    kind: MsgKind
    src: str
    dst: str
    size: int                      # payload bytes
    port: int = 0                  # GM port / UDP port
    data: Any = None               # logical payload (for correctness checks)
    meta: Dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=lambda: next(_msg_ids))

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"negative message size: {self.size}")


@dataclass
class Frame:
    """One wire fragment of a message."""

    message: Message
    index: int
    count: int
    payload_bytes: int
    wire_bytes: int

    @property
    def dst(self) -> str:
        return self.message.dst


def fragment(message: Message, mtu: int, header_bytes: int) -> List[Frame]:
    """Split ``message`` into MTU-sized frames with per-frame headers."""
    if mtu <= 0:
        raise ValueError(f"MTU must be positive: {mtu}")
    size = message.size
    if size == 0:
        return [Frame(message, 0, 1, 0, header_bytes)]
    count = (size + mtu - 1) // mtu
    frames = []
    remaining = size
    for i in range(count):
        chunk = min(mtu, remaining)
        remaining -= chunk
        frames.append(Frame(message, i, count, chunk, chunk + header_bytes))
    return frames


class Reassembler:
    """Per-message reassembly state at a receiving NIC."""

    def __init__(self):
        self._seen: Dict[int, int] = {}

    def add(self, frame: Frame) -> Optional[Message]:
        """Account one frame; return the message when complete."""
        mid = frame.message.msg_id
        got = self._seen.get(mid, 0) + 1
        if got == frame.count:
            self._seen.pop(mid, None)
            return frame.message
        self._seen[mid] = got
        return None
