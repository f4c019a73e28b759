"""Ethernet II framing, with optional 802.1Q VLAN tagging.

The frame object is the unit that links carry and switches forward.
Minimum-frame padding (64-byte frames on the wire) is accounted for in
``wire_length`` so byte counters match what real hardware would carry;
the 8-byte preamble and 12-byte inter-frame gap are modelled by
:class:`repro.net.link.Link` as per-frame overhead, not here.
"""

from __future__ import annotations

import struct

from repro.errors import CodecError
from repro.net.addresses import MacAddress
from repro.net.packet import Packet, encode_payload, payload_length

# EtherTypes used in this library. LDP and the fabric-manager protocol are
# PortLand control protocols; we give them experimental EtherTypes just as
# the paper's OpenFlow agents would tunnel them.
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_LDP = 0x88B5  # IEEE experimental ethertype 1
ETHERTYPE_FABRIC = 0x88B6  # IEEE experimental ethertype 2

#: Ethernet header: dst(6) + src(6) + ethertype(2).
ETHERNET_HEADER_LEN = 14
#: 802.1Q tag adds 4 bytes.
VLAN_TAG_LEN = 4
#: Frame check sequence.
ETHERNET_FCS_LEN = 4
#: Minimum frame size on the wire (header + payload + FCS).
ETHERNET_MIN_FRAME = 64
#: Conventional MTU for the payload.
ETHERNET_MTU = 1500

_new_frame = object.__new__


class EthernetFrame(Packet):
    """An Ethernet II frame, optionally 802.1Q-tagged."""

    __slots__ = ("dst", "src", "ethertype", "payload", "vlan", "tclass",
                 "_fwd_memo", "_wire_len")

    def __init__(
        self,
        dst: MacAddress,
        src: MacAddress,
        ethertype: int,
        payload: Packet | bytes | None,
        vlan: int | None = None,
        tclass: int = 0,
    ) -> None:
        if not 0 <= ethertype <= 0xFFFF:
            raise CodecError(f"ethertype out of range: {ethertype:#x}")
        if vlan is not None and not 0 <= vlan <= 0xFFF:
            raise CodecError(f"VLAN id out of range: {vlan}")
        self.dst = dst
        self.src = src
        self.ethertype = ethertype
        self.payload = payload
        self.vlan = vlan
        # Serving class at strict-priority egress queues (0 = best
        # effort, the only value classic workloads ever produce).
        # Derived from the IPv4 DSCP at the sending host
        # (repro.policy.classes.class_of_dscp) so links never parse IP
        # headers; not on the wire (it models an 802.1p PCP field the
        # byte-accurate codec rounds to zero cost).
        self.tclass = tclass
        # Memoised (src, dst, decision key) managed by
        # repro.switching.flow_table; a pure function of the headers and
        # the (immutable-once-sent) payload, revalidated against
        # src/dst/ethertype on every read so header rewrites can never
        # serve a stale key.
        self._fwd_memo: tuple | None = None
        # Memoised wire_length(): read per hop (entry counters, port
        # counters, serialization time) but constant per frame — the
        # payload is immutable once sent and header rewrites never change
        # the length (only the VLAN tag could, and it is fixed at
        # construction). copy() carries the memo, which stays valid
        # because copies share the payload.
        self._wire_len: int | None = None

    def copy(self) -> "EthernetFrame":
        """:meth:`Packet.copy` for the one PDU that is copied per hop
        (every AMAC↔PMAC rewrite at an edge): the eight slots assigned,
        which is all the generic protocol ends up doing, at a tenth of
        its cost. A subclass may carry more state, so it gets the
        generic copy."""
        if self.__class__ is not EthernetFrame:
            return super().copy()
        new = _new_frame(EthernetFrame)
        new.dst = self.dst
        new.src = self.src
        new.ethertype = self.ethertype
        new.payload = self.payload
        new.vlan = self.vlan
        new.tclass = self.tclass
        new._fwd_memo = self._fwd_memo
        new._wire_len = self._wire_len
        return new

    def header_length(self) -> int:
        """Bytes of framing overhead (header + FCS + any VLAN tag)."""
        length = ETHERNET_HEADER_LEN + ETHERNET_FCS_LEN
        if self.vlan is not None:
            length += VLAN_TAG_LEN
        return length

    def wire_length(self) -> int:
        """Frame size on the wire, including minimum-frame padding."""
        length = self._wire_len
        if length is None:
            length = self._wire_len = max(
                self.header_length() + payload_length(self.payload),
                ETHERNET_MIN_FRAME)
        return length

    def encode(self) -> bytes:
        """Wire bytes (FCS rendered as four zero bytes; padding applied)."""
        body = encode_payload(self.payload)
        if self.vlan is not None:
            header = self.dst.to_bytes() + self.src.to_bytes()
            header += struct.pack("!HHH", ETHERTYPE_VLAN, self.vlan, self.ethertype)
        else:
            header = self.dst.to_bytes() + self.src.to_bytes()
            header += struct.pack("!H", self.ethertype)
        frame = header + body
        pad = max(0, ETHERNET_MIN_FRAME - ETHERNET_FCS_LEN - len(frame))
        return frame + b"\x00" * pad + b"\x00" * ETHERNET_FCS_LEN

    @classmethod
    def decode(cls, data: bytes) -> "EthernetFrame":
        """Parse header fields; the payload is kept as raw bytes.

        Higher-layer decoding is dispatched by the receiver based on
        ``ethertype`` (see the host stack). The trailing FCS is stripped.
        """
        if len(data) < ETHERNET_HEADER_LEN + ETHERNET_FCS_LEN:
            raise CodecError(f"frame too short: {len(data)} bytes")
        dst = MacAddress.from_bytes(data[0:6])
        src = MacAddress.from_bytes(data[6:12])
        (ethertype,) = struct.unpack_from("!H", data, 12)
        offset = 14
        vlan = None
        if ethertype == ETHERTYPE_VLAN:
            if len(data) < offset + 4:
                raise CodecError("truncated VLAN tag")
            tag, ethertype = struct.unpack_from("!HH", data, offset)
            vlan = tag & 0xFFF
            offset += 4
        body = data[offset : len(data) - ETHERNET_FCS_LEN]
        return cls(dst=dst, src=src, ethertype=ethertype, payload=body, vlan=vlan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EthernetFrame({self.src}->{self.dst} type={self.ethertype:#06x}"
            f" len={self.wire_length()})"
        )
