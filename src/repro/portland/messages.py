"""Wire formats for PortLand's control protocols.

Two families:

* **LDP messages** (ethertype ``ETHERTYPE_LDP``), exchanged hop-by-hop
  between neighbouring switches: the periodic Location Discovery
  Message, and the position proposal/ack pair edge switches use to agree
  on unique position numbers with their aggregation switches.
* **Fabric-manager messages** (ethertype ``ETHERTYPE_FABRIC``), carried
  on the control network between switch agents and the fabric manager:
  host registration, ARP query/response, pod assignment, fault reports
  and prescriptive fault updates, multicast tree installation, and VM
  migration invalidation.

Everything encodes to real bytes so control-plane load (Fig. 14) is
measured in wire bytes, not object counts.

Each class is its dataclass fields plus, in the decorator above it, its
layout on the wire: the tag byte, then one field kind per field in order
(:mod:`repro.net.codec` holds the one ``encode`` / ``decode`` /
``wire_length`` that reads these tables). The same decorator fills the
registry :func:`decode_ldp` / :func:`decode_fabric` look the tag up in.
"""

from __future__ import annotations

import enum
from functools import partial

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.codec import (BOOL, BYTES, IPV4, MAC, U8, U16, U32, Counted,
                             Record, Scalar, decode_any, layout)


class SwitchLevel(enum.IntEnum):
    """Tree level of a switch, as discovered by LDP."""

    UNKNOWN = 0
    EDGE = 1
    AGGREGATION = 2
    CORE = 3


#: Sentinel wire values for not-yet-known pod/position.
NO_POD = 0xFFFF
NO_POSITION = 0xFF

#: A switch identifier: its 48-bit management MAC as an integer.
SWITCH_ID = Scalar(6)
LEVEL = Scalar(1, SwitchLevel)


# ----------------------------------------------------------------------
# LDP messages

_LDP_CLASSES: dict[int, type[Record]] = {}
ldp_message = partial(layout, _LDP_CLASSES)


@ldp_message(1, SWITCH_ID, LEVEL, U16, U8, U32)
class LocationDiscoveryMessage(Record):
    """The periodic LDM beacon (paper §3.2).

    Carries the sender's identity and its current belief about its own
    location. Doubling as a keepalive, its absence is the fabric's
    failure detector.
    """

    switch_id: int
    level: SwitchLevel
    pod: int
    position: int
    seq: int


@ldp_message(2, SWITCH_ID, U8)
class PositionProposal(Record):
    """Edge → aggregation: "may I take this position number?"."""

    switch_id: int
    position: int


@ldp_message(3, SWITCH_ID, U8, BOOL)
class PositionAck(Record):
    """Aggregation → edge: grant or refuse a proposed position."""

    switch_id: int
    position: int
    granted: bool


def decode_ldp(data: bytes) -> Record:
    """Decode any LDP-family message from wire bytes."""
    return decode_any(_LDP_CLASSES, "LDP", data)


# ----------------------------------------------------------------------
# Fabric-manager protocol


class FmType(enum.IntEnum):
    """Fabric-manager message type tags."""

    REGISTER_HOST = 1
    ARP_QUERY = 2
    ARP_RESPONSE = 3
    ARP_FLOOD = 4
    POD_REQUEST = 5
    POD_REPLY = 6
    NEIGHBOR_REPORT = 7
    LINK_FAIL = 8
    LINK_RECOVER = 9
    FAULT_UPDATE = 10
    FAULT_CLEAR = 11
    MCAST_INSTALL = 12
    MCAST_REMOVE = 13
    IGMP_RELAY = 14
    MCAST_MISS = 15
    INVALIDATE = 16
    # 17 was GRATUITOUS_ARP (retired; not reused).
    DISABLE_LINK = 18
    ENABLE_LINK = 19
    BROADCAST_RELAY = 20
    OVERRIDE_REPORT = 21
    POLICY_INSTALL = 22
    POLICY_REVOKE = 23


class FmMessage(Record):
    """Base class for fabric-manager protocol messages."""


_FM_CLASSES: dict[int, type[FmMessage]] = {}
fm_message = partial(layout, _FM_CLASSES)


@fm_message(FmType.REGISTER_HOST, SWITCH_ID, U8, MAC, IPV4, MAC)
class RegisterHost(FmMessage):
    """Edge → FM: a (new or moved) host appeared on one of my ports."""

    edge_id: int
    port: int
    amac: MacAddress
    ip: IPv4Address
    pmac: MacAddress


@fm_message(FmType.ARP_QUERY, U32, SWITCH_ID, IPV4, MAC, IPV4)
class ArpQuery(FmMessage):
    """Edge → FM: resolve ``target_ip`` for a host's ARP request."""

    request_id: int
    edge_id: int
    requester_ip: IPv4Address
    requester_pmac: MacAddress
    target_ip: IPv4Address


@fm_message(FmType.ARP_RESPONSE, U32, IPV4, MAC, BOOL)
class ArpResponse(FmMessage):
    """FM → edge: resolution result for an :class:`ArpQuery`."""

    request_id: int
    target_ip: IPv4Address
    pmac: MacAddress
    found: bool


@fm_message(FmType.ARP_FLOOD, IPV4, IPV4, MAC)
class ArpFlood(FmMessage):
    """FM → all edges: broadcast an ARP request for an unknown IP.

    The paper's fallback when the fabric manager has no mapping: the
    request goes out every edge switch's host ports — still loop-free,
    and vastly rarer than per-host broadcast.
    """

    target_ip: IPv4Address
    requester_ip: IPv4Address
    requester_pmac: MacAddress


@fm_message(FmType.POD_REQUEST, SWITCH_ID)
class PodRequest(FmMessage):
    """Edge (position 0) → FM: assign my pod a number."""

    switch_id: int


@fm_message(FmType.POD_REPLY, U16)
class PodReply(FmMessage):
    """FM → edge: your pod number."""

    pod: int


@fm_message(FmType.NEIGHBOR_REPORT, SWITCH_ID, LEVEL, U16, U8,
            Counted(U16, U8, SWITCH_ID, LEVEL))
class NeighborReport(FmMessage):
    """Switch → FM: my identity, location, and per-port neighbours.

    This is how the fabric manager builds the topology view it needs to
    compute prescriptive fault updates and multicast trees.
    """

    switch_id: int
    level: SwitchLevel
    pod: int
    position: int
    #: tuple of (port, neighbor_switch_id, neighbor_level)
    neighbors: tuple[tuple[int, int, SwitchLevel], ...]


@fm_message(FmType.LINK_FAIL, SWITCH_ID, U8, SWITCH_ID)
class LinkFail(FmMessage):
    """Switch → FM: I lost the link to ``neighbor_id`` on ``port``."""

    reporter_id: int
    port: int
    neighbor_id: int


@fm_message(FmType.LINK_RECOVER, SWITCH_ID, U8, SWITCH_ID)
class LinkRecover(FmMessage):
    """Switch → FM: the link to ``neighbor_id`` on ``port`` came back."""

    reporter_id: int
    port: int
    neighbor_id: int


@fm_message(FmType.FAULT_UPDATE, MAC, U8, Counted(U16, SWITCH_ID))
class FaultUpdate(FmMessage):
    """FM → switch: route ``prefix`` avoiding the listed neighbours.

    Prescriptive: the receiving agent installs a higher-priority entry
    for the PMAC prefix whose ECMP group omits uplinks leading to any of
    ``avoid_neighbor_ids``.
    """

    prefix: MacAddress
    prefix_len: int
    avoid_neighbor_ids: tuple[int, ...]


@fm_message(FmType.FAULT_CLEAR, MAC, U8)
class FaultClear(FmMessage):
    """FM → switch: remove the fault override for ``prefix``."""

    prefix: MacAddress
    prefix_len: int


@fm_message(FmType.MCAST_INSTALL, MAC, Counted(U8, U8))
class McastInstall(FmMessage):
    """FM → switch: forward ``group`` out exactly these ports."""

    group_mac: MacAddress
    ports: tuple[int, ...]


@fm_message(FmType.MCAST_REMOVE, MAC)
class McastRemove(FmMessage):
    """FM → switch: drop your entry for ``group``."""

    group_mac: MacAddress


@fm_message(FmType.IGMP_RELAY, SWITCH_ID, U8, IPV4, BOOL, IPV4)
class IgmpRelay(FmMessage):
    """Edge → FM: a host joined/left a multicast group."""

    edge_id: int
    port: int
    group: IPv4Address
    join: bool
    host_ip: IPv4Address


@fm_message(FmType.MCAST_MISS, SWITCH_ID, IPV4)
class McastMiss(FmMessage):
    """Edge → FM: a host is sending to a group I have no entry for."""

    edge_id: int
    group: IPv4Address


@fm_message(FmType.INVALIDATE, IPV4, MAC, MAC)
class Invalidate(FmMessage):
    """FM → old edge after migration: trap traffic for the stale PMAC.

    The old edge installs a software entry: frames addressed to
    ``old_pmac`` are punted, forwarded on to ``new_pmac``, and answered
    with a unicast gratuitous ARP so the sender repoints its cache.
    """

    ip: IPv4Address
    old_pmac: MacAddress
    new_pmac: MacAddress


@fm_message(FmType.DISABLE_LINK, SWITCH_ID)
class DisableLink(FmMessage):
    """FM → switch: stop using your link toward ``neighbor_id``.

    Sent to *both* endpoints of a link entered into the fault matrix.
    Crucial for unidirectional failures: the endpoint whose receive
    direction still works would otherwise never notice (its LDP
    keepalives keep arriving) and would keep blackholing traffic into
    the dead transmit direction.
    """

    neighbor_id: int


@fm_message(FmType.ENABLE_LINK, SWITCH_ID)
class EnableLink(FmMessage):
    """FM → switch: the link toward ``neighbor_id`` is healthy again."""

    neighbor_id: int


@fm_message(FmType.BROADCAST_RELAY, SWITCH_ID, MAC, U16, BYTES)
class BroadcastRelay(FmMessage):
    """Edge ⇄ FM: a non-ARP broadcast frame, tunnelled for fabric-wide
    delivery (paper §3.4: "broadcast ... through the fabric manager").

    The originating edge punts the frame (e.g. a DHCP DISCOVER) to the
    fabric manager, which relays it to every *other* edge switch; each
    re-emits it on its host ports. The fabric itself never floods.
    ``src_pmac`` lets receiving edges suppress the sender's own port.
    """

    edge_id: int
    src_pmac: MacAddress
    ethertype: int
    payload: bytes


@fm_message(FmType.OVERRIDE_REPORT, SWITCH_ID, Counted(U16, SWITCH_ID, U8))
class OverrideReport(FmMessage):
    """Switch → FM: the fault-override prefixes I currently hold.

    Part of the soft-state refresh: overrides are the one piece of
    *FM-originated* state agents hold, so a restarted fabric manager
    cannot reconstruct them from its own registries. Comparing the
    reported prefixes against ``_sent_overrides`` lets it retract
    entries that no longer follow from the (rebuilt) fault matrix —
    e.g. a link that recovered while the manager was down — and re-push
    entries the switch is missing. Sent only while the switch holds at
    least one override, so a healthy fabric pays nothing.
    """

    switch_id: int
    #: tuple of (48-bit PMAC prefix value, prefix length in bits)
    prefixes: tuple[tuple[int, int], ...]


@fm_message(FmType.POLICY_INSTALL, IPV4, IPV4, MAC, U8)
class PolicyInstall(FmMessage):
    """FM → edge: materialise one ACL (drop ``src_ip`` → ``dst_ip``).

    Sent to the *source* host's edge switch; carries the host's ingress
    port and the destination's current PMAC, so the agent can install
    the exact (in_port, eth_dst) drop entry
    (:func:`repro.portland.forwarding.acl_drop`). Re-sent whenever
    either endpoint (re-)registers — migration moves the entry, and a
    soft-state refresh after an FM restart restores it.
    """

    src_ip: IPv4Address
    dst_ip: IPv4Address
    dst_pmac: MacAddress
    port: int


@fm_message(FmType.POLICY_REVOKE, IPV4, IPV4)
class PolicyRevoke(FmMessage):
    """FM → edge: remove the ACL entry for the (src, dst) pair."""

    src_ip: IPv4Address
    dst_ip: IPv4Address


def decode_fabric(data: bytes) -> FmMessage:
    """Decode any fabric-manager message from wire bytes."""
    return decode_any(_FM_CLASSES, "fabric", data)
