"""Codec tests: every PDU encodes to bytes and decodes back, and
``wire_length`` always equals ``len(encode())``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.net.addresses import BROADCAST_MAC, IPv4Address, MacAddress
from repro.net.arp import ARP_REPLY, ARP_REQUEST, ArpPacket
from repro.net.ethernet import (
    ETHERNET_MIN_FRAME,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    EthernetFrame,
)
from repro.net.igmp import IgmpMessage
from repro.net.ipv4 import IPPROTO_UDP, IPv4Packet
from repro.net.packet import AppData, coerce
from repro.net.tcp_wire import FLAG_ACK, FLAG_FIN, FLAG_SYN, TcpSegment
from repro.net.udp import UdpDatagram

MACS = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)
IPS = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)


def test_ethernet_roundtrip_and_min_frame():
    frame = EthernetFrame(BROADCAST_MAC, MacAddress(1), ETHERTYPE_IPV4, b"hi")
    raw = frame.encode()
    assert len(raw) == frame.wire_length() == ETHERNET_MIN_FRAME
    decoded = EthernetFrame.decode(raw)
    assert decoded.dst == frame.dst
    assert decoded.src == frame.src
    assert decoded.ethertype == ETHERTYPE_IPV4


def test_ethernet_vlan_tag_roundtrip():
    frame = EthernetFrame(MacAddress(2), MacAddress(1), ETHERTYPE_IPV4,
                          b"x" * 100, vlan=42)
    decoded = EthernetFrame.decode(frame.encode())
    assert decoded.vlan == 42
    assert decoded.ethertype == ETHERTYPE_IPV4
    assert frame.wire_length() == 14 + 4 + 100 + 4


def test_ethernet_rejects_garbage():
    with pytest.raises(CodecError):
        EthernetFrame.decode(b"\x00" * 10)
    with pytest.raises(CodecError):
        EthernetFrame(MacAddress(0), MacAddress(0), 1 << 16, b"")


def test_arp_roundtrip_and_helpers():
    req = ArpPacket.request(MacAddress(1), IPv4Address(10), IPv4Address(20))
    decoded = ArpPacket.decode(req.encode())
    assert decoded.op == ARP_REQUEST
    assert decoded.target_ip == IPv4Address(20)
    assert decoded.ethernet_dst().is_broadcast
    assert len(req.encode()) == req.wire_length() == 28

    rep = ArpPacket.reply(MacAddress(2), IPv4Address(20), MacAddress(1),
                          IPv4Address(10))
    assert ArpPacket.decode(rep.encode()).op == ARP_REPLY
    assert rep.ethernet_dst() == MacAddress(1)

    grat = ArpPacket.gratuitous(MacAddress(3), IPv4Address(30))
    assert grat.is_gratuitous
    assert grat.ethernet_dst().is_broadcast


def test_ipv4_roundtrip_and_checksum():
    packet = IPv4Packet(IPv4Address(1), IPv4Address(2), IPPROTO_UDP,
                        b"payload", ttl=17, ident=99, dscp=10)
    raw = packet.encode()
    assert len(raw) == packet.wire_length()
    decoded = IPv4Packet.decode(raw)
    assert (decoded.src, decoded.dst) == (packet.src, packet.dst)
    assert decoded.ttl == 17
    assert decoded.ident == 99
    assert decoded.dscp == 10
    assert bytes(decoded.payload) == b"payload"
    from repro.net.checksum import verify_checksum
    assert verify_checksum(raw[:20])


def test_ipv4_rejects_malformed():
    with pytest.raises(CodecError):
        IPv4Packet.decode(b"\x00" * 10)
    with pytest.raises(CodecError):
        IPv4Packet(IPv4Address(0), IPv4Address(0), 300, b"")


def test_udp_roundtrip():
    d = UdpDatagram(1000, 2000, b"abc")
    decoded = UdpDatagram.decode(d.encode())
    assert (decoded.src_port, decoded.dst_port) == (1000, 2000)
    assert bytes(decoded.payload) == b"abc"
    with pytest.raises(CodecError):
        UdpDatagram(70000, 1, b"")


def test_tcp_segment_roundtrip_and_seg_len():
    seg = TcpSegment(10, 20, seq=100, ack=200, flags=FLAG_SYN | FLAG_ACK,
                     window=500, payload=b"zz")
    decoded = TcpSegment.decode(seg.encode())
    assert (decoded.seq, decoded.ack) == (100, 200)
    assert decoded.flags == FLAG_SYN | FLAG_ACK
    assert decoded.payload_length == 2
    assert seg.seg_len == 3  # 2 data + SYN
    fin = TcpSegment(1, 2, 0, 0, FLAG_FIN, 0)
    assert fin.seg_len == 1


def test_igmp_roundtrip():
    join = IgmpMessage.join(IPv4Address.parse("239.0.0.5"))
    decoded = IgmpMessage.decode(join.encode())
    assert decoded.is_join
    assert decoded.group == IPv4Address.parse("239.0.0.5")
    leave = IgmpMessage.leave(IPv4Address.parse("239.0.0.5"))
    assert not IgmpMessage.decode(leave.encode()).is_join
    with pytest.raises(CodecError):
        IgmpMessage.join(IPv4Address.parse("10.0.0.1"))


def test_appdata_and_coerce():
    data = AppData(10, flow_id="f", seq=3, sent_at=1.5)
    assert data.encode() == b"\x00" * 10
    assert data.wire_length() == 10
    # coerce: objects pass through, bytes are decoded, junk raises.
    assert coerce(data, AppData) is data
    arp = ArpPacket.request(MacAddress(1), IPv4Address(1), IPv4Address(2))
    assert coerce(arp.encode(), ArpPacket).target_ip == IPv4Address(2)
    with pytest.raises(TypeError):
        coerce(3.14, ArpPacket)


@given(src=MACS, dst=MACS, ethertype=st.integers(0, 0xFFFF),
       length=st.integers(0, 1500))
def test_frame_wire_length_matches_encode(src, dst, ethertype, length):
    frame = EthernetFrame(dst, src, ethertype, AppData(length))
    assert len(frame.encode()) == frame.wire_length()


@given(src=IPS, dst=IPS, proto=st.integers(0, 255), ttl=st.integers(0, 255),
       length=st.integers(0, 1480))
def test_ipv4_wire_length_matches_encode(src, dst, proto, ttl, length):
    packet = IPv4Packet(src, dst, proto, AppData(length), ttl=ttl)
    raw = packet.encode()
    assert len(raw) == packet.wire_length()
    decoded = IPv4Packet.decode(raw)
    assert decoded.src == src and decoded.dst == dst
    assert decoded.protocol == proto


@given(op=st.sampled_from([ARP_REQUEST, ARP_REPLY]), sha=MACS, tha=MACS,
       spa=IPS, tpa=IPS)
def test_arp_roundtrip_property(op, sha, tha, spa, tpa):
    arp = ArpPacket(op, sha, spa, tha, tpa)
    decoded = ArpPacket.decode(arp.encode())
    assert decoded.op == op
    assert decoded.sender_mac == sha and decoded.target_mac == tha
    assert decoded.sender_ip == spa and decoded.target_ip == tpa


# ----------------------------------------------------------------------
# EthernetFrame.copy(): the per-hop copy, spelled out slot by slot


def _slots(frame) -> dict:
    return {name: getattr(frame, name)
            for cls in type(frame).__mro__
            for name in getattr(cls, "__slots__", ())}


def test_frame_copy_is_the_generic_copy_slot_for_slot():
    import copy

    from repro.switching.flow_table import decision_key

    payload = IPv4Packet(IPv4Address(1), IPv4Address(2), IPPROTO_UDP,
                         UdpDatagram(5, 6, AppData(200)))
    frame = EthernetFrame(MacAddress(2), MacAddress(1), ETHERTYPE_IPV4,
                          payload, vlan=7, tclass=1)
    frame.wire_length()
    decision_key(frame)                   # both memos are filled in
    assert frame._wire_len is not None and frame._fwd_memo is not None
    assert not hasattr(frame, "__dict__")  # the slots are all there is
    mine, generic = frame.copy(), copy.copy(frame)
    assert type(mine) is EthernetFrame and mine is not frame
    assert _slots(mine) == _slots(generic) == _slots(frame)
    assert len(_slots(frame)) == 8
    assert mine.payload is payload        # shared, as Packet.copy promises
    assert mine._fwd_memo is frame._fwd_memo
    # Independent headers: a rewrite of the copy leaves the original alone.
    mine.dst = MacAddress(9)
    assert frame.dst == MacAddress(2)


def test_frame_subclass_state_survives_copy():
    class Tagged(EthernetFrame):
        __slots__ = ("tag",)

    frame = Tagged(MacAddress(2), MacAddress(1), ETHERTYPE_IPV4, b"x" * 50)
    frame.tag = "kept"
    clone = frame.copy()
    assert type(clone) is Tagged
    assert clone.tag == "kept"
    assert _slots(clone) == _slots(frame)
