"""The sk_buff: the kernel's packet descriptor.

Allocating one is the first expensive thing the conventional receive path
does — the cost XDP exists to avoid ("even before it takes the expensive
step of populating it into a kernel socket buffer data structure", §2.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.net.packet import Packet


@dataclass
class SkBuff:
    """A kernel packet buffer wrapping the frame and receive metadata."""

    pkt: Packet
    dev_ifindex: int = 0
    rx_queue: int = 0
    #: RSS hash from hardware (None = must be computed in software).
    hw_hash: Optional[int] = None
    #: Hardware verified the L4 checksum (CHECKSUM_UNNECESSARY).
    csum_unnecessary: bool = False
    #: conntrack state attached by netfilter, if any.
    ct_info: Optional[object] = None
    cb: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.pkt)

