"""Agent-level behaviours exercised directly on a converged fabric."""

from repro.host.apps import UdpEchoServer, UdpPinger
from repro.net import AppData
from repro.net.addresses import MacAddress
from repro.portland.messages import (
    FaultClear,
    FaultUpdate,
    McastInstall,
    McastRemove,
    SwitchLevel,
)
from repro.portland.pmac import position_prefix
from repro.sim import Simulator
from repro.topology import build_portland_fabric


def test_same_edge_hairpin_traffic(fabric):
    """Two hosts on the same edge switch talk without leaving it."""
    sim = fabric.sim
    hosts = fabric.host_list()
    h0, h1 = hosts[0], hosts[1]  # both on edge-p0-s0
    inbox = h1.udp_socket(5000)
    h0.udp_socket().sendto(h1.ip, 5000, AppData(10))
    sim.run(until=sim.now + 0.2)
    assert len(inbox.inbox) == 1
    # No uplink transmitted the data frame beyond control/LDP noise:
    # the edge's host egress entry handled it locally.
    edge = fabric.switches["edge-p0-s0"]
    assert any(e.packets >= 1 for e in edge.table
               if e.name.startswith("host:"))


def test_host_port_down_unregisters_locally(fabric):
    sim = fabric.sim
    agent = fabric.agents["edge-p0-s0"]
    assert len(agent.hosts_by_amac) == 2
    spec = fabric.tree.hosts[0]
    fabric.link_between(spec.name, spec.edge_switch).fail()
    sim.run(until=sim.now + 0.05)
    assert len(agent.hosts_by_amac) == 1
    # Entries are gone too.
    assert not any(e.name == f"ingress:{spec.mac}"
                   for e in agent.switch.rewrite_table)


def test_fault_update_and_clear_messages(fabric):
    agent = fabric.agents["edge-p0-s0"]
    value, bits = position_prefix(agent.ldp.pod ^ 1, 0)  # some other prefix
    avoid_id = fabric.agents["agg-p0-s0"].switch_id
    agent._handle_fm_frame_message = None  # no-op guard
    from repro.net.ethernet import ETHERTYPE_FABRIC, EthernetFrame

    update = FaultUpdate(value, bits, (avoid_id,))
    frame = EthernetFrame(MacAddress(agent.switch_id), MacAddress(1),
                          ETHERTYPE_FABRIC, update)
    agent._handle_fm_frame(frame)
    entry = next(e for e in agent.switch.table if e.name.startswith("fault:"))
    # The ECMP group excludes the avoided neighbour's port.
    ports = entry.actions[0].ports
    avoided_port = next(i for i, info in agent.ldp.neighbors.items()
                        if info.switch_id == avoid_id)
    assert avoided_port not in ports and len(ports) == 1

    clear = FaultClear(value, bits)
    frame = EthernetFrame(MacAddress(agent.switch_id), MacAddress(1),
                          ETHERTYPE_FABRIC, clear)
    agent._handle_fm_frame(frame)
    assert not any(e.name.startswith("fault:") for e in agent.switch.table)


def test_mcast_install_remove_messages(fabric):
    from repro.net import ip as mkip
    from repro.net.ethernet import ETHERTYPE_FABRIC, EthernetFrame

    agent = fabric.agents["agg-p0-s0"]
    group_mac = mkip("239.9.9.9").multicast_mac()
    install = McastInstall(group_mac, (0, 2))
    agent._handle_fm_frame(EthernetFrame(MacAddress(agent.switch_id),
                                         MacAddress(1), ETHERTYPE_FABRIC,
                                         install))
    entry = next(e for e in agent.switch.table if e.name.startswith("mcast:"))
    assert entry.actions[0].ports == (0, 2)
    # Reinstall with different ports replaces, not duplicates.
    agent._handle_fm_frame(EthernetFrame(MacAddress(agent.switch_id),
                                         MacAddress(1), ETHERTYPE_FABRIC,
                                         McastInstall(group_mac, (1,))))
    entries = [e for e in agent.switch.table if e.name.startswith("mcast:")]
    assert len(entries) == 1 and entries[0].actions[0].ports == (1,)
    agent._handle_fm_frame(EthernetFrame(MacAddress(agent.switch_id),
                                         MacAddress(1), ETHERTYPE_FABRIC,
                                         McastRemove(group_mac)))
    assert not any(e.name.startswith("mcast:") for e in agent.switch.table)


def test_trap_garp_rate_limited(fabric):
    sim = fabric.sim
    from repro.net import ip as mkip
    from repro.net.ethernet import ETHERTYPE_FABRIC, ETHERTYPE_IPV4, EthernetFrame
    from repro.portland.messages import Invalidate

    agent = fabric.agents["edge-p0-s0"]
    record = next(iter(agent.hosts_by_amac.values()))
    old_pmac = record.pmac.to_mac()
    new_pmac = MacAddress(0x000300010000)
    inv = Invalidate(record.ip, old_pmac, new_pmac)
    agent._handle_fm_frame(EthernetFrame(MacAddress(agent.switch_id),
                                         MacAddress(1), ETHERTYPE_FABRIC, inv))
    assert old_pmac in agent._traps

    sender_pmac = MacAddress(0x000100000000)
    injected = 0
    orig_inject = agent.switch.inject

    def counting_inject(frame, from_port_index=-1):
        nonlocal injected
        injected += 1
        # swallow: we only count GARP/forward attempts

    agent.switch.inject = counting_inject
    data = EthernetFrame(old_pmac, sender_pmac, ETHERTYPE_IPV4, AppData(10))
    for _ in range(5):
        agent._handle_trap(data)
    agent.switch.inject = orig_inject
    # 1 rate-limited GARP + 5 forwarded copies.
    assert injected == 6


def test_arp_counters_on_agents(fabric):
    sim = fabric.sim
    hosts = fabric.host_list()
    agent = fabric.edge_agent_of(hosts[0].name)
    before = agent.arp_queries
    UdpEchoServer(hosts[9], 7)
    hosts[0].arp_cache.invalidate(hosts[9].ip)
    pinger = UdpPinger(hosts[0], hosts[9].ip)
    pinger.ping()
    sim.run(until=sim.now + 0.2)
    assert agent.arp_queries == before + 1
    assert agent.control_messages_sent > 0
    assert agent.control_bytes_sent > 0


def test_agg_and_core_have_no_host_state(fabric):
    for name, agent in fabric.agents.items():
        if agent.level is not SwitchLevel.EDGE:
            assert agent.hosts_by_amac == {}
            assert agent.allocator is None
            assert len(agent.switch.rewrite_table) == 0


# ----------------------------------------------------------------------
# The agent states the entries it wants and the table reconciles
# (DESIGN.md, "Table programming"): what is already installed is not
# removed to be put back, so it keeps its counters and nobody is told.


def _down_counters(agent):
    return {e.name: (id(e), e.packets, e.bytes) for e in agent.switch.table
            if e.name.startswith("down:")}


def test_unchanged_down_set_is_left_alone(fabric):
    sim = fabric.sim
    hosts = fabric.host_list()
    UdpEchoServer(hosts[0], 7)
    pinger = UdpPinger(hosts[9], hosts[0].ip)
    for _ in range(4):
        pinger.ping()
    sim.run(until=sim.now + 0.1)
    aggs = [fabric.agents[name] for name in ("agg-p0-s0", "agg-p0-s1")]
    agent = next(a for a in aggs if any(
        packets for _id, packets, _bytes in _down_counters(a).values()))
    before = _down_counters(agent)
    assert len(before) == 2

    notified = []
    agent.switch.table.add_change_listener(lambda: notified.append(sim.now))
    # A neighbour whose LDM says again what the agent already knows.
    edge_port = next(i for i, info in agent.ldp.neighbors.items()
                     if info.level is SwitchLevel.EDGE)
    agent.on_neighbor_changed(edge_port)
    assert notified == []
    assert _down_counters(agent) == before

    # Losing an uplink rewrites default-up and nothing else: the down:
    # entries are the same objects, packets and bytes still on them.
    core_id = next(info.switch_id for info in agent.ldp.neighbors.values()
                   if info.level is SwitchLevel.CORE)
    core = next(name for name, a in fabric.agents.items()
                if a.switch_id == core_id)
    fabric.link_between(agent.switch.name, core).fail()
    sim.run(until=sim.now + 0.1)
    assert len(notified) == 1
    assert _down_counters(agent) == before


def test_repeated_fault_update_mutates_once_and_flushes_once(fabric):
    from repro.net.ethernet import ETHERTYPE_FABRIC, EthernetFrame

    sim = fabric.sim
    hosts = fabric.host_list()
    inbox = hosts[-1].udp_socket(5000)
    hosts[0].udp_socket().sendto(hosts[-1].ip, 5000, AppData(10))
    sim.run(until=sim.now + 0.05)
    assert len(inbox.inbox) == 1
    agent = fabric.agents["edge-p0-s0"]
    table = agent.switch.table
    assert len(table.plans) > 0  # a plan the first update has to retire

    value, bits = position_prefix(agent.ldp.pod ^ 1, 0)
    update = FaultUpdate(value, bits,
                         (fabric.agents["agg-p0-s0"].switch_id,))
    frame = EthernetFrame(MacAddress(agent.switch_id), MacAddress(1),
                          ETHERTYPE_FABRIC, update)
    mutations = []
    table.add_change_listener(lambda: mutations.append(1))
    flushes = table.flushes
    agent._handle_fm_frame(frame)
    version = table.version
    agent._handle_fm_frame(frame)
    assert len(mutations) == 1 and table.version == version
    # A plan dies with the table it was compiled from, and only then.
    assert table.flushes == flushes + 1
