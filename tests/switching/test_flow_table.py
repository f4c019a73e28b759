"""Unit tests for matches, actions, flow tables, and flow hashing."""

import pytest

from repro.net import AppData, EthernetFrame, IPv4Packet, TcpSegment, UdpDatagram, mac
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4
from repro.net.ipv4 import IPPROTO_IGMP, IPPROTO_TCP, IPPROTO_UDP
from repro.switching.flow_table import (
    FlowTable,
    Match,
    Output,
    ToAgent,
    flow_hash,
    mac_prefix_mask,
)


def frame(dst="00:00:00:00:00:02", src="00:00:00:00:00:01",
          ethertype=ETHERTYPE_IPV4, payload=None):
    return EthernetFrame(mac(dst), mac(src), ethertype,
                         payload if payload is not None else AppData(10))


def test_wildcard_match_matches_everything():
    assert Match().matches(frame(), in_port=3)


def test_in_port_and_ethertype_matching():
    m = Match(in_port=1, ethertype=ETHERTYPE_ARP)
    assert m.matches(frame(ethertype=ETHERTYPE_ARP), 1)
    assert not m.matches(frame(ethertype=ETHERTYPE_ARP), 2)
    assert not m.matches(frame(ethertype=ETHERTYPE_IPV4), 1)


def test_masked_dst_prefix_matching():
    # 16-bit prefix: match everything in "pod" 0x0102.
    prefix = mac("01:02:00:00:00:00")
    m = Match(eth_dst=prefix, eth_dst_mask=mac_prefix_mask(16))
    assert m.matches(frame(dst="01:02:aa:bb:cc:dd"), 0)
    assert not m.matches(frame(dst="01:03:aa:bb:cc:dd"), 0)


def test_mask_boundaries():
    assert mac_prefix_mask(0) == 0
    assert mac_prefix_mask(48) == (1 << 48) - 1
    import pytest
    from repro.errors import SwitchError
    with pytest.raises(SwitchError):
        mac_prefix_mask(49)


def test_ip_proto_matching_decodes_payload():
    packet = IPv4Packet(IPv4Address(1), IPv4Address(2), IPPROTO_IGMP, b"")
    f = frame(payload=packet)
    assert Match(ip_proto=IPPROTO_IGMP).matches(f, 0)
    assert not Match(ip_proto=IPPROTO_UDP).matches(f, 0)
    # Non-IP frames never match an ip_proto filter.
    assert not Match(ip_proto=IPPROTO_IGMP).matches(
        frame(ethertype=ETHERTYPE_ARP), 0)


def test_table_priority_and_insertion_order():
    table = FlowTable()
    low = table.install(Match(), (Output(1),), priority=10, name="low")
    high = table.install(Match(), (Output(2),), priority=20, name="high")
    same = table.install(Match(), (Output(3),), priority=20, name="high2")
    found = table.lookup(frame(), 0)
    assert found is high  # highest priority, earliest install wins
    table.remove(high)
    assert table.lookup(frame(), 0) is same
    assert len(table) == 2


def test_remove_by_name_and_where():
    table = FlowTable()
    table.install(Match(), (), name="a")
    table.install(Match(), (), name="a")
    table.install(Match(), (), name="b")
    assert table.remove_by_name("a") == 2
    assert table.remove_where(lambda e: e.name == "b") == 1
    assert len(table) == 0
    assert table.remove(table.install(Match(), ())) is True


def test_lookup_skip_punts():
    table = FlowTable()
    table.install(Match(), (ToAgent("x"),), priority=50, name="punt")
    fallback = table.install(Match(), (Output(1),), priority=10, name="out")
    assert table.lookup(frame(), 0).name == "punt"
    assert table.lookup(frame(), 0, skip_punts=True) is fallback


def test_counters_touch():
    table = FlowTable()
    entry = table.install(Match(), (Output(1),))
    f = frame()
    entry.touch(f)
    assert entry.packets == 1
    assert entry.bytes == f.wire_length()


def test_flow_hash_stable_per_flow_and_spreads():
    packet = IPv4Packet(IPv4Address(1), IPv4Address(2), IPPROTO_TCP,
                        TcpSegment(1000, 80, 0, 0, 0, 100))
    f1 = frame(payload=packet)
    f2 = frame(payload=packet.copy())
    assert flow_hash(f1) == flow_hash(f2)

    hashes = set()
    for sport in range(100):
        p = IPv4Packet(IPv4Address(1), IPv4Address(2), IPPROTO_UDP,
                       UdpDatagram(sport + 1, 80, b""))
        hashes.add(flow_hash(frame(payload=p)) % 4)
    assert hashes == {0, 1, 2, 3}  # ECMP uses all four uplinks


def test_flow_hash_survives_encoded_payloads():
    packet = IPv4Packet(IPv4Address(1), IPv4Address(2), IPPROTO_UDP,
                        UdpDatagram(5, 80, b"abc"))
    as_object = frame(payload=packet)
    as_bytes = frame(payload=packet.encode())
    assert flow_hash(as_object) == flow_hash(as_bytes)


def test_flow_hash_ignores_undecodable_bytes():
    # Bytes that are no UDP header (or no IPv4 packet) are "not this
    # protocol": the hash falls back to the layers below, not raising.
    def udp(payload):
        return frame(payload=IPv4Packet(IPv4Address(1), IPv4Address(2),
                                        IPPROTO_UDP, payload))

    assert flow_hash(udp(b"ab")) == flow_hash(udp(b"cd"))
    assert flow_hash(frame(payload=b"\x00" * 3)) == flow_hash(frame())


def test_flow_hash_propagates_a_decoder_bug(monkeypatch):
    # Only a codec error means "not this protocol"; a decoder that fails
    # any other way is a bug, and the data path must not hide it.
    def broken(cls, data):
        raise RuntimeError("decoder bug")

    monkeypatch.setattr(UdpDatagram, "decode", classmethod(broken))
    packet = IPv4Packet(IPv4Address(1), IPv4Address(2), IPPROTO_UDP,
                        UdpDatagram(5, 80, b"abc").encode())
    with pytest.raises(RuntimeError, match="decoder bug"):
        flow_hash(frame(payload=packet))
