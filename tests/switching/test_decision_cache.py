"""Unit tests for a flow table's memo of its own verdicts."""

import repro.switching.flow_table as flow_table
from repro.net import AppData, EthernetFrame, IPv4Packet, UdpDatagram, mac
from repro.net.addresses import IPv4Address
from repro.net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4
from repro.net.ipv4 import IPPROTO_UDP
from repro.switching.flow_table import (
    FlowTable,
    Match,
    Output,
    SelectByHash,
    decision_key,
    flow_hash,
    mac_prefix_mask,
    resolve_actions,
)


def _udp_frame(dst: str, src_port: int = 1234) -> EthernetFrame:
    packet = IPv4Packet(IPv4Address(1), IPv4Address(2), IPPROTO_UDP,
                        UdpDatagram(src_port, 80, AppData(64)))
    return EthernetFrame(mac(dst), mac("00:07:00:01:00:00"),
                         ETHERTYPE_IPV4, packet)


def _pmac_table() -> FlowTable:
    table = FlowTable()
    table.install(Match(ethertype=ETHERTYPE_ARP), (Output(9),), 500, "arp")
    table.install(Match(eth_dst=mac("00:03:00:01:00:00")), (Output(1),),
                  400, "host")
    table.install(Match(eth_dst=mac("00:03:00:00:00:00"),
                        eth_dst_mask=mac_prefix_mask(24)), (), 200, "drop")
    table.install(Match(), (SelectByHash((2, 3)),), 100, "up")
    return table


# ----------------------------------------------------------------------
# Key / resolution helpers


def test_decision_key_separates_flows_and_protocols():
    a = _udp_frame("00:03:00:01:00:00", src_port=1000)
    b = _udp_frame("00:03:00:01:00:00", src_port=2000)
    arp = EthernetFrame(mac("00:03:00:01:00:00"), mac("00:07:00:01:00:00"),
                        ETHERTYPE_ARP, None)
    assert decision_key(a) != decision_key(b)  # different transport flow
    assert decision_key(a)[:3] == decision_key(b)[:3]  # same (dst, type, proto)
    assert decision_key(arp)[1] == ETHERTYPE_ARP
    assert decision_key(arp)[2] is None


def test_decision_key_hash_component_is_flow_hash():
    frame = _udp_frame("00:03:00:01:00:00")
    assert decision_key(frame)[3] == flow_hash(frame)


def test_resolve_actions_pins_ecmp_choice():
    frame = _udp_frame("00:03:00:07:00:00")
    fhash = flow_hash(frame)
    resolved = resolve_actions((SelectByHash((2, 3, 4)),), fhash)
    assert resolved == (Output((2, 3, 4)[fhash % 3]),)
    # Empty ECMP group (prefix unreachable) resolves to no action = drop.
    assert resolve_actions((SelectByHash(()),), fhash) == ()


# ----------------------------------------------------------------------
# Memo behaviour

#: A switch's port list as ``decide`` reads it: only its length matters
#: to a plan that is not executed.
PORTS = tuple(range(10))


def test_cache_hit_returns_same_decision_as_walk():
    table = _pmac_table()
    frame = _udp_frame("00:03:00:01:00:00")
    key = decision_key(frame)
    assert key not in table.plans
    decision = table.decide(frame, 0, PORTS)
    assert table.plans[key] is decision
    assert table.decide(frame, 0, PORTS) is decision
    assert decision[0] is table.lookup(frame, 0)
    assert table.hits == 1 and table.misses == 1 and table.installs == 1


def test_any_table_mutation_flushes_cache():
    table = _pmac_table()
    frame = _udp_frame("00:03:00:01:00:00")
    key = decision_key(frame)
    table.decide(frame, 0, PORTS)

    table.install(Match(), (Output(5),), 50, "extra")
    assert key not in table.plans, "install did not invalidate"

    table.decide(frame, 0, PORTS)
    table.remove_by_name("extra")
    assert key not in table.plans, "remove_by_name did not invalidate"

    table.decide(frame, 0, PORTS)
    table.remove_where(lambda e: e.name == "up")
    assert key not in table.plans, "remove_where did not invalidate"

    table.install(Match(), (SelectByHash((2, 3)),), 100, "up")
    table.decide(frame, 0, PORTS)
    table.clear()
    assert key not in table.plans, "clear did not invalidate"
    assert table.flushes == 4


def test_noop_removals_do_not_bump_version():
    table = _pmac_table()
    version = table.version
    assert table.remove_by_name("no-such-entry") == 0
    assert table.remove_where(lambda e: False) == 0
    assert table.version == version


def test_cache_safe_tracks_non_key_matches():
    table = _pmac_table()
    assert table.cache_safe
    entry = table.install(Match(in_port=3), (Output(1),), 300, "port-match")
    assert not table.cache_safe
    # Not cache-safe: the verdict is compiled for the frame, not kept.
    frame = _udp_frame("00:03:00:07:00:00")
    assert table.decide(frame, 3, PORTS).entry is entry
    assert table.decide(frame, 0, PORTS).entry.name == "drop"
    assert table.plans == {} and table.misses == table.installs == 0
    table.remove(entry)
    assert table.cache_safe
    table.install(Match(eth_src=mac("00:01:00:00:00:01")), (Output(1),),
                  300, "src-match")
    assert not table.cache_safe
    table.remove_by_name("src-match")
    assert table.cache_safe


def test_capacity_eviction_is_fifo_and_bounded(monkeypatch):
    monkeypatch.setattr(flow_table, "PLAN_MEMO_ENTRIES", 4)
    table = _pmac_table()
    frames = [_udp_frame("00:03:00:01:00:00", src_port=p)
              for p in range(1000, 1006)]
    keys = [decision_key(f) for f in frames]
    for frame in frames:
        table.decide(frame, 0, PORTS)
    assert len(table.plans) == 4
    assert table.evictions == 2
    assert list(table.plans) == keys[2:]  # oldest two evicted


def test_stats_snapshot():
    table = _pmac_table()
    frame = _udp_frame("00:03:00:01:00:00")
    table.decide(frame, 0, PORTS)
    table.decide(frame, 0, PORTS)
    assert table.hits == 1 and table.misses == 1
    assert len(table.plans) == 1
