"""LDP behaviour tests on real (small) fabrics."""

from collections import Counter

from repro.portland.messages import SwitchLevel
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.topology.builder import LinkParams
from repro.topology.multirooted import build_multirooted_tree


def converged_fabric(sim, **kwargs):
    fabric = build_portland_fabric(sim, **kwargs)
    fabric.start()
    fabric.run_until_located()
    return fabric


def test_levels_discovered_correctly():
    sim = Simulator(seed=1)
    fabric = converged_fabric(sim, k=4)
    levels = Counter(a.level for a in fabric.agents.values())
    assert levels[SwitchLevel.EDGE] == 8
    assert levels[SwitchLevel.AGGREGATION] == 8
    assert levels[SwitchLevel.CORE] == 4
    # Physical roles match discovered roles.
    for name, agent in fabric.agents.items():
        expected = {"edge": SwitchLevel.EDGE, "agg": SwitchLevel.AGGREGATION,
                    "core": SwitchLevel.CORE}[name.split("-")[0]]
        assert agent.level is expected


def test_positions_unique_within_pod():
    sim = Simulator(seed=2)
    fabric = converged_fabric(sim, k=4)
    by_pod = {}
    for agent in fabric.agents.values():
        if agent.level is SwitchLevel.EDGE:
            by_pod.setdefault(agent.ldp.pod, []).append(agent.ldp.position)
    assert len(by_pod) == 4
    for pod, positions in by_pod.items():
        assert sorted(positions) == [0, 1]


def test_pods_grouped_by_physical_pod():
    sim = Simulator(seed=3)
    fabric = converged_fabric(sim, k=4)
    for physical_pod in range(4):
        pods = {fabric.agents[f"edge-p{physical_pod}-s{s}"].ldp.pod
                for s in range(2)}
        pods |= {fabric.agents[f"agg-p{physical_pod}-s{s}"].ldp.pod
                 for s in range(2)}
        assert len(pods) == 1  # every switch in a physical pod agrees


def test_host_ports_identified():
    sim = Simulator(seed=4)
    fabric = converged_fabric(sim, k=4)
    for name, agent in fabric.agents.items():
        if agent.level is SwitchLevel.EDGE:
            assert agent.ldp.host_ports == {0, 1}
            assert sorted(agent.ldp.up_ports()) == [2, 3]


def test_discovery_is_deterministic_per_seed():
    def snapshot(seed):
        sim = Simulator(seed=seed)
        fabric = converged_fabric(sim, k=4)
        return {name: (a.level, a.ldp.pod, a.ldp.position)
                for name, a in fabric.agents.items()}

    assert snapshot(5) == snapshot(5)


def test_ldp_timeout_detects_silent_failure():
    sim = Simulator(seed=6)
    fabric = converged_fabric(sim, k=4,
                              link_params=LinkParams(carrier_detect=False))
    agent = fabric.agents["agg-p0-s0"]
    config = agent.config
    neighbors_before = len(agent.ldp.neighbors)
    fabric.link_between("agg-p0-s0", "core-0").fail()
    fail_time = sim.now
    # Detection takes miss_threshold periods (plus one check interval).
    sim.run(until=fail_time + config.ldm_period_s * (config.miss_threshold + 2))
    assert len(agent.ldp.neighbors) == neighbors_before - 1
    fm = fabric.fabric_manager
    sim.run(until=sim.now + 0.01)
    assert len(fm.fault_matrix) == 1


def test_carrier_detection_is_immediate():
    sim = Simulator(seed=6)
    fabric = converged_fabric(sim, k=4,
                              link_params=LinkParams(carrier_detect=True))
    agent = fabric.agents["agg-p0-s0"]
    before = len(agent.ldp.neighbors)
    fabric.link_between("agg-p0-s0", "core-0").fail()
    sim.run(until=sim.now + 0.002)
    assert len(agent.ldp.neighbors) == before - 1


def test_recovery_clears_fault_matrix_and_rediscovers():
    sim = Simulator(seed=7)
    fabric = converged_fabric(sim, k=4,
                              link_params=LinkParams(carrier_detect=False))
    link = fabric.link_between("agg-p0-s0", "core-0")
    link.fail()
    sim.run(until=sim.now + 0.2)
    assert len(fabric.fabric_manager.fault_matrix) == 1
    link.recover()
    sim.run(until=sim.now + 0.2)
    assert len(fabric.fabric_manager.fault_matrix) == 0
    agent = fabric.agents["agg-p0-s0"]
    assert len(agent.ldp.up_ports()) == 2


def test_ldp_on_irregular_multirooted_tree():
    sim = Simulator(seed=8)
    tree = build_multirooted_tree(num_pods=3, edges_per_pod=2,
                                  aggs_per_pod=2, cores_per_group=1,
                                  hosts_per_edge=2)
    fabric = build_portland_fabric(sim, tree=tree)
    fabric.start()
    fabric.run_until_located()
    levels = Counter(a.level for a in fabric.agents.values())
    assert levels[SwitchLevel.EDGE] == 6
    assert levels[SwitchLevel.AGGREGATION] == 6
    assert levels[SwitchLevel.CORE] == 2
    fabric.announce_hosts()
    fabric.run_until_registered()


def test_ldm_in_software_path_cannot_resurrect_a_carrier_lost_neighbor():
    """Regression: an LDM delivered just before ``fail()`` is still in
    the receiving switch's 50 us packet-in path when carrier loss
    deletes the neighbour. It used to re-create the entry for the dead
    link — a false "link up" report to the fabric manager — which then
    took a full LDP timeout to expire again."""
    from repro.net.ethernet import ETHERTYPE_LDP
    from repro.sim import TraceCollector

    sim = Simulator(seed=5)
    # Every LDM as a frame, so that the tap below sees the delivery.
    sim.trace.subscribe("keepalive.ldm", lambda record: None)
    fabric = converged_fabric(sim, k=4)
    link = fabric.link_between("agg-p0-s0", "core-0")
    agg = fabric.switches["agg-p0-s0"]
    deliver = agg.receive

    def cut_right_after_an_ldm(frame, in_port):
        deliver(frame, in_port)
        if (in_port.link is link and frame.ethertype == ETHERTYPE_LDP
                and not link.failed):
            link.fail()

    agg.receive = cut_right_after_an_ldm
    lost = TraceCollector(sim.trace, "ldp.neighbor_lost")
    changed = []
    agent = fabric.agents["agg-p0-s0"]
    on_changed = agent.on_neighbor_changed
    agent.on_neighbor_changed = lambda index: (changed.append(index),
                                               on_changed(index))
    sim.run(until=sim.now + 0.1)
    assert link.failed
    assert sorted(r.source for r in lost.records) == ["agg-p0-s0", "core-0"]
    assert changed == []
    port = link.a if link.a.node is agg else link.b
    assert port.index not in agent.ldp.neighbors

    # Carrier back: the neighbour is learned again from fresh LDMs.
    agg.receive = deliver
    link.recover()
    sim.run(until=sim.now + 0.03)
    assert port.index in agent.ldp.neighbors
