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

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.addresses import MacAddress
from repro.net.ethernet import ETHERTYPE_FABRIC, EthernetFrame
from repro.portland.agent import PortlandAgent
from repro.portland.messages import (
    DisableLink,
    EnableLink,
    FaultClear,
    FaultUpdate,
)
from repro.portland.pmac import pod_prefix, position_prefix
from repro.portland.switch import PortlandSwitch
from repro.sim import Simulator
from repro.topology import build_portland_fabric

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


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_tables_equal_a_fresh_agents(ops):
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
