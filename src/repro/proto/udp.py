"""UDP/IP over the NIC's Ethernet emulation.

The testbed ran NFS over UDP with IP checksum offload and interrupt
coalescing, using the LANai's standard Ethernet emulation with a 9 KB MTU
and 8 KB IP fragments (Section 5). UDP was chosen over TCP to approximate
an offloaded transport on Myrinet's near-lossless fabric; we model the
same choice, so there is no retransmission machinery on this path.

Cost model per datagram:

* sender: one syscall, per-fragment IP/UDP processing, an optional
  user-to-mbuf copy, then the NIC doorbell;
* receiver: a (coalesced) interrupt plus per-fragment IP processing in the
  driver context, then a scheduler wakeup of the blocked socket reader.
  Socket-to-user copies are charged by the *consumer* (netperf copies
  once; standard NFS copies through the buffer cache; NFS pre-posting does
  not copy at all because the NIC header-split the payload).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Generator, Optional

from ..hw.cpu import PRIO_KERNEL
from ..hw.host import Host
from ..net.packet import Message
from ..sim import Store


class UDPStack:
    """Per-host UDP/IP stack bound to the NIC's Ethernet personality."""

    def __init__(self, host: Host):
        self.host = host
        self.params = host.params
        self._sockets: Dict[int, "UDPSocket"] = {}
        host.nic.set_eth_handler(self._from_nic)

    def socket(self, port: int) -> "UDPSocket":
        if port in self._sockets:
            raise ValueError(f"UDP port {port} already bound on "
                             f"{self.host.name}")
        sock = UDPSocket(self, port)
        self._sockets[port] = sock
        return sock

    def fragments_of(self, nbytes: int) -> int:
        payload = self.params.net.ip_fragment_payload
        return max(1, math.ceil(nbytes / payload))

    # -- receive path ------------------------------------------------------

    def _from_nic(self, msg: Message) -> None:
        """NIC upcall (NIC context): hand off to a host-side task."""
        self.host.sim.spawn(self._deliver(msg))

    def _deliver(self, msg: Message) -> Generator:
        cpu = self.host.cpu
        yield from cpu.interrupt(
            coalesce_window_us=self.params.nic.interrupt_coalesce_us)
        frags = self.fragments_of(msg.size)
        yield from cpu.execute(frags * self.params.proto.udp_frag_us,
                               category="udp", priority=PRIO_KERNEL)
        sock = self._sockets.get(msg.port)
        if sock is None:
            return  # no listener: datagram dropped
        yield from cpu.wakeup()
        sock._inbound.put(msg)

    # -- send path -----------------------------------------------------------

    def _send(self, src_sock: "UDPSocket", dst: str, nbytes: int,
              data: Any, meta: Optional[Dict[str, Any]],
              copy: Optional[str]) -> Generator:
        cpu = self.host.cpu
        yield from cpu.syscall()
        if copy is not None and nbytes > 0:
            yield from cpu.copy(nbytes, cached=(copy == "cached"))
        frags = self.fragments_of(nbytes)
        yield from cpu.execute(frags * self.params.proto.udp_frag_us,
                               category="udp")
        yield from self.host.nic.eth_send(dst, nbytes, data=data,
                                          meta=meta or {},
                                          port=src_sock.port)


class UDPSocket:
    """A bound UDP socket (send/recv talk to the same port remotely)."""

    def __init__(self, stack: UDPStack, port: int):
        self.stack = stack
        self.port = port
        self._inbound: Store = Store(stack.host.sim,
                                     name=f"{stack.host.name}:udp{port}")

    @property
    def host(self) -> Host:
        return self.stack.host

    def send(self, dst: str, nbytes: int, data: Any = None,
             meta: Optional[Dict[str, Any]] = None,
             copy: Optional[str] = None) -> Generator:
        """Transmit a datagram to the same port on ``dst``.

        ``copy`` charges the user-to-kernel data copy: "cached",
        "uncached", or None (default) for zero-copy senders — outgoing
        copy avoidance is easy with scatter/gather DMA (Section 2.2), and
        callers that *do* copy (netperf, the standard NFS server reply
        path) pass the appropriate mode.
        """
        yield from self.stack._send(self, dst, nbytes, data, meta, copy)

    def recv(self) -> Generator:
        """Block until a datagram arrives; returns the :class:`Message`.

        Kernel-to-user copies are charged by the caller (see module doc).
        """
        yield from self.host.cpu.syscall()
        msg = yield self._inbound.get()
        return msg
