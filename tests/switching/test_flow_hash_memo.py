"""The ECMP hash, remembered per flow, against the hash computed from
scratch.

``_hash_and_proto`` remembers a TCP or UDP flow's hash under exactly
the fields it is computed from, and every frame's decision key is also
memoised on the frame itself. Neither memo may ever serve a hash the
headers do not give: for every kind of payload, after header rewrites
and copies, ``decision_key`` and ``flow_hash`` must equal the CRC-32 of
the L2–L4 fields as :func:`reference` builds it.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.arp import ArpPacket
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4, EthernetFrame
from repro.net.ipv4 import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP, IPv4Packet
from repro.net.packet import AppData, payload_as
from repro.net.tcp_wire import FLAG_ACK, TcpSegment
from repro.net.udp import UdpDatagram
from repro.portland.switch import PortlandSwitch
from repro.sim import Simulator
from repro.switching import flow_table
from repro.switching.flow_table import (
    SetEthDst,
    SetEthSrc,
    decision_key,
    flow_hash,
)

#: Payload kinds: the two the memo serves, then every other kind.
MEMOISED = ("tcp", "udp")
KINDS = (*MEMOISED, "icmp", "arp", "ip-bytes", "tcp-bytes", "raw-bytes",
         "tcp-as-udp")


def reference(frame: EthernetFrame) -> tuple:
    """``(flow hash, IP protocol)`` from the headers, parsed as bytes if
    they are bytes: the hash as it was computed before any memo."""
    protocol = None
    material = frame.src.to_bytes() + frame.dst.to_bytes()
    material += frame.ethertype.to_bytes(2, "big")
    if frame.ethertype == ETHERTYPE_IPV4:
        packet = payload_as(frame.payload, IPv4Packet)
        if packet is not None:
            protocol = packet.protocol
            material += packet.src.to_bytes() + packet.dst.to_bytes()
            material += bytes([packet.protocol])
            header = None
            if packet.protocol == IPPROTO_UDP:
                header = payload_as(packet.payload, UdpDatagram)
            elif packet.protocol == IPPROTO_TCP:
                header = payload_as(packet.payload, TcpSegment)
            if header is not None:
                material += header.src_port.to_bytes(2, "big")
                material += header.dst_port.to_bytes(2, "big")
    return zlib.crc32(material), protocol


def _frame(kind: str, macs, ips, ports, length: int) -> EthernetFrame:
    src_mac, dst_mac = (MacAddress(value) for value in macs)
    src_ip, dst_ip = (IPv4Address(value) for value in ips)
    sport, dport = ports
    tcp = TcpSegment(sport, dport, length, 0, FLAG_ACK, 65535,
                     AppData(length))
    udp = UdpDatagram(sport, dport, AppData(length))
    if kind == "arp":
        return EthernetFrame(dst_mac, src_mac, ETHERTYPE_ARP,
                             ArpPacket.request(src_mac, src_ip, dst_ip))
    if kind == "raw-bytes":
        return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4,
                             bytes(length))
    protocol, payload = {
        "tcp": (IPPROTO_TCP, tcp),
        "udp": (IPPROTO_UDP, udp),
        "icmp": (IPPROTO_ICMP, AppData(length)),
        "tcp-bytes": (IPPROTO_TCP, tcp.encode()),
        "ip-bytes": (IPPROTO_UDP, udp),
        # A header of the other protocol is no header of this one.
        "tcp-as-udp": (IPPROTO_TCP, udp),
    }[kind]
    packet = IPv4Packet(src_ip, dst_ip, protocol, payload)
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4,
                         packet.encode() if kind == "ip-bytes" else packet)


def _assert_hashes_as_reference(frame: EthernetFrame) -> None:
    fhash, protocol = reference(frame)
    assert decision_key(frame) == (frame.dst.value, frame.ethertype,
                                   protocol, fhash)
    assert flow_hash(frame) == fhash


macs = st.tuples(*[st.integers(0, MacAddress.MAX)] * 2)
ips = st.tuples(*[st.integers(0, IPv4Address.MAX)] * 2)
ports = st.tuples(*[st.integers(0, 0xFFFF)] * 2)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), macs=macs, ips=ips, ports=ports,
       length=st.integers(0, 1460), rewrites=st.lists(
           st.tuples(st.sampled_from(("src", "dst", "copy")),
                     st.integers(0, MacAddress.MAX)), max_size=4))
def test_hash_equals_reference_through_rewrites_and_copies(
        kind, macs, ips, ports, length, rewrites):
    switch = PortlandSwitch(Simulator(), "s", 2)
    frame = _frame(kind, macs, ips, ports, length)
    _assert_hashes_as_reference(frame)
    for field, value in rewrites:
        if field == "copy":
            frame = frame.copy()
        else:
            action = (SetEthSrc if field == "src" else SetEthDst)(
                MacAddress(value))
            # The interpreter's rewrite: a copy with the header replaced.
            frame = switch.apply_actions(frame, switch.ports[0], (action,))
        _assert_hashes_as_reference(frame)
    # A second frame of the same flow, hashed from the memo.
    _assert_hashes_as_reference(_frame(kind, macs, ips, ports, length + 1))


@pytest.mark.parametrize("kind", MEMOISED)
def test_frames_of_one_flow_hit_the_memo(kind, monkeypatch):
    monkeypatch.setattr(flow_table, "_flow_hashes", {})
    flow = ((0x020000000001, 0x020000000002), (0x0A000001, 0x0A000002),
            (33000, 80))
    first = _frame(kind, *flow, 1460)
    expected = reference(first)
    assert flow_table._hash_and_proto(first) == expected

    def no_crc(frame):
        raise AssertionError("a frame of a remembered flow was re-hashed")

    monkeypatch.setattr(flow_table, "_crc_hash", no_crc)
    for length in (0, 40, 1460):
        later = _frame(kind, *flow, length)
        assert flow_table._hash_and_proto(later) == expected
        assert flow_hash(later) == expected[0]
    assert len(flow_table._flow_hashes) == 1


@pytest.mark.parametrize("kind", KINDS[len(MEMOISED):])
def test_other_frames_are_hashed_from_scratch(kind, monkeypatch):
    monkeypatch.setattr(flow_table, "_flow_hashes", {})
    flow = ((0x020000000001, 0x020000000002), (0x0A000001, 0x0A000002),
            (33000, 80))
    frame = _frame(kind, *flow, 64)
    assert flow_table._hash_and_proto(frame) == reference(frame)
    assert flow_table._flow_hashes == {}


def test_the_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(flow_table, "_flow_hashes", {})
    monkeypatch.setattr(flow_table, "FLOW_HASH_MEMO_ENTRIES", 4)
    for sport in range(10):
        frame = _frame("udp", (1, 2), (3, 4), (sport, 53), 64)
        assert flow_table._hash_and_proto(frame) == reference(frame)
        assert len(flow_table._flow_hashes) <= 4
