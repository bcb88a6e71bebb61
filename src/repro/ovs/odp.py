"""ODP: the datapath action vocabulary.

These are the *datapath-level* actions OpenFlow rules translate into —
the vocabulary the kernel module's netlink interface defines and that the
userspace datapath mirrors.  The kernel executor
(:mod:`repro.kernel.ovs_module`) and the userspace executor
(:mod:`repro.ovs.dpif_netdev`) implement them independently, exactly the
duplication the paper laments ("OVS uses its own userspace implementations
of these features, built by OVS developers over a period of years", §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.net.tunnel import TunnelConfig


class OdpAction:
    """Marker base class."""

    __slots__ = ()


@dataclass(frozen=True)
class Output(OdpAction):
    """Send the packet out of datapath port ``port_no``."""

    port_no: int


@dataclass(frozen=True)
class PushVlan(OdpAction):
    vid: int
    pcp: int = 0


@dataclass(frozen=True)
class PopVlan(OdpAction):
    pass


@dataclass(frozen=True)
class SetField(OdpAction):
    """Rewrite a header field.  ``field`` names a FlowKey field:
    eth_src, eth_dst, nw_src, nw_dst, nw_ttl, tp_src, tp_dst."""

    field: str
    value: int


@dataclass(frozen=True)
class Ct(OdpAction):
    """Send the packet through connection tracking.

    ``commit`` creates the connection; after ct() the packet's ct_state /
    ct_zone metadata is populated and the flow normally recirculates.
    """

    zone: int = 0
    commit: bool = False
    #: Optional DNAT (ip, port); models ct(nat(dst=...)).
    nat_dst: Optional[Tuple[int, int]] = None


@dataclass(frozen=True)
class Recirc(OdpAction):
    """Re-run the datapath lookup with a new recirculation id."""

    recirc_id: int


@dataclass(frozen=True)
class TunnelPush(OdpAction):
    """Encapsulate, then continue with the packet on the underlay.

    The route/ARP resolution happened at translation time (ovs-router);
    the config carries resolved outer MACs.
    """

    config: TunnelConfig
    out_port: int


@dataclass(frozen=True)
class TunnelPop(OdpAction):
    """Decapsulate and re-inject as if received on a tunnel vport."""

    vport: int


@dataclass(frozen=True)
class Userspace(OdpAction):
    """Punt to userspace (e.g. controller, sFlow); reason is free text."""

    reason: str = "action"


@dataclass(frozen=True)
class Meter(OdpAction):
    meter_id: int


@dataclass(frozen=True)
class Trunc(OdpAction):
    max_len: int


#: An empty action list means drop.
Actions = Sequence[OdpAction]
DROP: Tuple[OdpAction, ...] = ()


def validate_actions(actions: Actions) -> None:
    """Reject malformed action lists early, like the kernel's netlink
    attribute validation would."""
    recirc_seen = False
    for act in actions:
        if not isinstance(act, OdpAction):
            raise TypeError(f"not an ODP action: {act!r}")
        if recirc_seen:
            raise ValueError("actions after recirc are unreachable")
        if isinstance(act, Recirc):
            recirc_seen = True
        if isinstance(act, SetField):
            allowed = {
                "eth_src", "eth_dst", "nw_src", "nw_dst",
                "nw_ttl", "tp_src", "tp_dst",
            }
            if act.field not in allowed:
                raise ValueError(f"cannot set field {act.field!r}")
        if isinstance(act, Trunc) and act.max_len <= 0:
            raise ValueError(f"trunc to {act.max_len} bytes is not a packet")
        if isinstance(act, Meter) and act.meter_id < 0:
            raise ValueError(f"negative meter id {act.meter_id}")
