"""The forwarding table is a function of the agent's state.

Whatever order link failures, recoveries and fabric-manager messages
arrived in, a switch's topology-dependent entries (and its base entries)
must be exactly what a *fresh* agent derives from the same LDP state
(level, pod, position, live neighbours, host ports), the same blocked
neighbours and the same fault overrides — as a set of
(name, match, actions, priority); order inside a priority class is
history, lookups do not depend on it. The agent reconciles instead of
re-installing (``FlowTable.sync``), so this is the property that says
reconciling forgot nothing.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.addresses import MacAddress
from repro.net.ethernet import ETHERTYPE_FABRIC, EthernetFrame
from repro.portland import forwarding as fwd
from repro.portland.agent import PortlandAgent
from repro.portland.ldp import LdpProcess, edge_detect_s
from repro.portland.messages import (
    DisableLink,
    EnableLink,
    FaultClear,
    FaultUpdate,
    SwitchLevel,
)
from repro.portland.pmac import pod_prefix, position_prefix
from repro.portland.switch import PortlandSwitch
from repro.sim import Simulator
from repro.switching.flow_table import FlowTable
from repro.topology import LinkParams, build_portland_fabric
from tests.portland.test_asymmetric_pods import build_asymmetric_tree

#: Entries that follow from hosts, groups and policy rather than from
#: the topology state the fresh agent is handed.
_OTHER_STATE = ("host:", "trap:", "mcast:", "acl:")

OPS = st.lists(
    st.tuples(st.sampled_from(["fail", "recover", "disable", "enable",
                               "fault-update", "fault-clear"]),
              st.integers(0, 10_000), st.integers(0, 10_000)),
    min_size=1, max_size=6)


def _rows(table):
    return {(e.name, e.match, e.actions, e.priority) for e in table
            if not e.name.startswith(_OTHER_STATE)}


def _fresh_rows(agent):
    """The table of a new agent handed ``agent``'s LDP and override state."""
    switch = PortlandSwitch(Simulator(seed=0), agent.switch.name,
                            len(agent.switch.ports))
    fresh = PortlandAgent(switch, agent.config, agent.scheme)
    fresh.ldp.preseed(agent.ldp.level, agent.ldp.pod, agent.ldp.position,
                      tuple(agent.ldp.host_ports))
    fresh.ldp.neighbors = dict(agent.ldp.neighbors)
    fresh.fm_blocked_neighbors = set(agent.fm_blocked_neighbors)
    fresh._fault_overrides = dict(agent._fault_overrides)
    fresh._install_base_entries()
    return _rows(switch.table)


def _deliver(agent, message):
    agent._handle_fm_frame(EthernetFrame(
        MacAddress(agent.switch_id), MacAddress(1), ETHERTYPE_FABRIC, message))


def _full_level_rule(ldp):
    """(level, host ports) as the level rules, evaluated over every
    neighbour and wired port, leave them: the reference for
    :meth:`LdpProcess._classify`, which evaluates only what the last LDM
    can have enabled."""
    if ldp.level is not SwitchLevel.UNKNOWN:
        return ldp.level, ldp.host_ports
    if any(n.level is SwitchLevel.EDGE for n in ldp.neighbors.values()):
        return SwitchLevel.AGGREGATION, ldp.host_ports
    wired = {p.index for p in ldp.data_ports()}
    heard = set(ldp.neighbors)
    silent = wired - heard
    if (silent and heard
            and ldp.sim.now - ldp._started_at >= edge_detect_s(ldp.config)):
        return SwitchLevel.EDGE, silent
    if (wired and heard == wired
            and all(n.level is SwitchLevel.AGGREGATION
                    for n in ldp.neighbors.values())):
        return SwitchLevel.CORE, ldp.host_ports
    return SwitchLevel.UNKNOWN, ldp.host_ports


def _full_topology_specs(agent):
    """Every topology entry, derived from the whole neighbour list: the
    reference for the agent's per-port derivation."""
    specs = agent.scheme.route_entries(agent)
    if specs is None:
        specs = []
        level = agent.level
        up = tuple(agent._usable_up_ports())
        if up:
            specs.append(fwd.default_up(up))
        pods: dict[int, list[int]] = {}
        for index, info in agent.ldp.neighbors.items():
            if info.switch_id in agent.fm_blocked_neighbors:
                continue
            if (level is SwitchLevel.AGGREGATION
                    and info.level is SwitchLevel.EDGE
                    and info.position is not None):
                specs.append(fwd.down_to_position(
                    agent.ldp.pod, info.position, index))
            elif (level is SwitchLevel.CORE
                    and info.level is SwitchLevel.AGGREGATION
                    and info.pod is not None):
                pods.setdefault(info.pod, []).append(index)
        specs.extend(fwd.down_to_pod(pod, tuple(sorted(ports)))
                     for pod, ports in pods.items())
    specs.extend(agent._fault_spec(key) for key in agent._fault_overrides)
    return specs


def _topology_rows(table):
    return [(e.name, e.match, e.actions, e.priority) for e in table
            if e.name.startswith(PortlandAgent._TOPOLOGY_ENTRIES)]


@contextmanager
def _checked_against_full_rules():
    """Check, after every LDM, the level against :func:`_full_level_rule`
    and, after every table refresh, each table's topology rows — in
    table order — against a shadow table that the whole-list
    :func:`_full_topology_specs` is synced into, as the agent once did.
    Yields the count of each check made."""
    classify = LdpProcess._classify
    refresh = PortlandAgent._refresh_entries
    install = PortlandAgent._install
    remove_by_name = FlowTable.remove_by_name
    shadows: dict[FlowTable, FlowTable] = {}
    checks = {"classify": 0, "refresh": 0}

    def checked_classify(ldp, info):
        expected = _full_level_rule(ldp)
        classify(ldp, info)
        assert (ldp.level, ldp.host_ports) == expected, ldp.switch.name
        checks["classify"] += 1

    def checked_refresh(agent, *port_index):
        refresh(agent, *port_index)
        if agent._base_installed:
            shadow = shadows.setdefault(agent.switch.table, FlowTable())
            shadow.sync(PortlandAgent._TOPOLOGY_ENTRIES,
                        _full_topology_specs(agent))
            assert (_topology_rows(agent.switch.table)
                    == _topology_rows(shadow)), (agent.switch.name,
                                                 port_index)
            checks["refresh"] += 1

    def mirrored_install(agent, spec):  # a FaultUpdate's one entry
        install(agent, spec)
        if spec[3].startswith("fault:"):
            shadows.setdefault(agent.switch.table, FlowTable()).sync(
                (), (spec,))

    def mirrored_remove_by_name(table, name):  # a FaultClear's
        if table in shadows:
            remove_by_name(shadows[table], name)
        return remove_by_name(table, name)

    LdpProcess._classify = checked_classify
    PortlandAgent._refresh_entries = checked_refresh
    PortlandAgent._install = mirrored_install
    FlowTable.remove_by_name = mirrored_remove_by_name
    try:
        yield checks
    finally:
        LdpProcess._classify = classify
        PortlandAgent._refresh_entries = refresh
        PortlandAgent._install = install
        FlowTable.remove_by_name = remove_by_name


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_tables_equal_a_fresh_agents(ops):
    with _checked_against_full_rules() as checks:
        _run_ops(ops)
    assert checks["classify"] and checks["refresh"]


def _run_ops(ops):
    sim = Simulator(seed=7)
    fabric = build_portland_fabric(sim, k=4)
    fabric.bring_up()
    links = [fabric.link_between(a, b)
             for a, b in fabric.scheme.fault_candidate_links()]
    agents = list(fabric.agents.values())
    prefixes = [pod_prefix(1), position_prefix(2, 0), position_prefix(3, 1)]
    for kind, a, b in ops:
        agent = agents[a % len(agents)]
        neighbors = sorted(info.switch_id
                           for info in agent.ldp.neighbors.values())
        if kind == "fail":
            links[a % len(links)].fail()
        elif kind == "recover":
            links[a % len(links)].recover()
        elif not neighbors:
            continue
        elif kind == "disable":
            _deliver(agent, DisableLink(neighbors[b % len(neighbors)]))
        elif kind == "enable":
            _deliver(agent, EnableLink(neighbors[b % len(neighbors)]))
        else:
            value, bits = prefixes[b % len(prefixes)]
            _deliver(agent, FaultUpdate(value, bits,
                                        (neighbors[b % len(neighbors)],))
                     if kind == "fault-update" else FaultClear(value, bits))
        sim.run(until=sim.now + 0.08)
        for other in agents:
            assert _rows(other.switch.table) == _fresh_rows(other), (
                other.switch.name, kind)


def _started(fabric):
    fabric.start()
    return fabric


def _cores_late(sim):
    """A k=4 fabric whose cores start two periods late: they hear
    aggregation switches before their own edge-detection wait is over
    (any later, and the aggregation switches take their silent uplinks
    for host ports)."""
    fabric = build_portland_fabric(sim, k=4)
    cores = set(fabric.tree.core_names)
    for name, agent in fabric.agents.items():
        if name not in cores:
            agent.start()
    sim.run(until=0.02)
    for name in cores:
        fabric.agents[name].start()
    return fabric


@pytest.mark.parametrize("started", [
    lambda sim: _started(build_portland_fabric(sim, k=6)),
    lambda sim: _started(build_portland_fabric(
        sim, tree=build_asymmetric_tree(),
        link_params=LinkParams(carrier_detect=False))),
    _cores_late,
], ids=["k6", "asymmetric-pods", "cores-late"])
def test_incremental_rules_equal_full_ones(started):
    # Bring-up, then a link failure, its recovery and a link the fabric
    # manager disables and re-enables, each run to quiescence, with both
    # incremental derivations checked against the full ones throughout.
    with _checked_against_full_rules() as checks:
        sim = Simulator(seed=5)
        fabric = started(sim)
        fabric.run_until_located(timeout_s=10.0)
        fabric.announce_hosts()
        fabric.run_until_registered(timeout_s=10.0)
        links = [link for (a, b), link in sorted(fabric.links.items())
                 if a in fabric.switches and b in fabric.switches]
        agents = list(fabric.agents.values())
        agent = agents[-1]
        neighbor = min(info.switch_id for info in agent.ldp.neighbors.values())
        steps = [links[0].fail, links[0].recover, links[-1].fail,
                 lambda: _deliver(agent, DisableLink(neighbor)),
                 links[-1].recover,
                 lambda: _deliver(agent, EnableLink(neighbor))]
        for step in steps:
            step()
            sim.run(until=sim.now + 0.2)
    assert checks["classify"] and checks["refresh"]
    for agent in agents:
        assert _rows(agent.switch.table) == _fresh_rows(agent)
