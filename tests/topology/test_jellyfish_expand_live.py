"""Live Jellyfish expansion: splice a ToR into a *running* fabric.

The static :func:`expand_jellyfish` is covered by the jellyfish property
tests; these tests exercise :func:`expand_jellyfish_live` — the same
Singla §3 rewiring performed on a simulating fabric — and assert the
full recovery story: a fluid flow's compiled path through a spliced
link is invalidated, routing re-converges through the new switch, the new hosts
register with the fabric manager, and the invariant oracle comes back
clean. A campaign-level test pins a scenario whose op draw includes
``expand`` steps mid-fault-sequence.
"""

from repro.errors import TopologyError
from repro.host.apps import UdpEchoServer, UdpPinger
from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.topology import (
    JellyfishScheme,
    build_jellyfish,
    build_portland_fabric,
    expand_jellyfish_live,
)
from repro.topology.jellyfish import expand_regular_graph, jellyfish_graph
from repro.verify import InvariantOracle
from repro.verify.campaign import CampaignConfig, run_scenario

EXPAND_SEED = 5


def converged_even_degree_fabric(sim):
    """A 12-switch degree-4 Jellyfish (even degree: splicable)."""
    tree = build_jellyfish(12, 4, hosts_per_switch=1, seed=3,
                           spare_host_ports=1)
    fabric = build_portland_fabric(
        sim, config=PortlandConfig(flow_mode=True),
        scheme=JellyfishScheme(tree))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def test_live_expansion_recovers_clean():
    sim = Simulator(seed=11)
    fabric = converged_even_degree_fabric(sim)

    # Predict (from the deterministic splice seed) one link that the
    # expansion will unplug, and pin a fluid flow's path across it first.
    graph = jellyfish_graph(fabric.tree)
    removed = ({frozenset(e) for e in graph.edges()}
               - {frozenset(e) for e in
                  expand_regular_graph(graph, 12, seed=EXPAND_SEED).edges()})
    a, b = min(sorted(edge) for edge in removed)
    src = fabric.hosts[f"host-j{a}-0"]
    dst = fabric.hosts[f"host-j{b}-0"]
    UdpEchoServer(dst, 7)
    pinger = UdpPinger(src, dst.ip)
    pinger.ping()
    sim.run(until=sim.now + 0.3)
    assert pinger.answered == 1  # adjacent pair: path uses the spliced link
    flow = fabric.flow_engine.start_flow(src, dst.ip, demand_bps=10e6)
    sim.run(until=sim.now + 0.01)
    fabric.flow_engine.settle_now()
    pinned = flow._path.compiled
    spliced = fabric.link_between(f"jelly-{a}", f"jelly-{b}")
    assert pinned is not None and spliced in pinned.links
    invalidated_before = fabric.path_cache.stats()["invalidated"]

    oracle = InvariantOracle(fabric)
    expansion = expand_jellyfish_live(fabric, seed=EXPAND_SEED)
    assert expansion.new_switch == "jelly-12"
    assert tuple(sorted((f"jelly-{a}", f"jelly-{b}"))) in [
        tuple(pair) for pair in expansion.spliced]
    assert len(fabric.switches) == 13
    sim.run(until=sim.now + 1.5)

    # The compiled path across the spliced link was retired (carrier
    # loss on detach), and the fabric re-located with the new switch.
    assert not pinned.alive
    assert fabric.path_cache.stats()["invalidated"] > invalidated_before
    assert fabric.located()

    # The new hosts announced, registered, and are reachable.
    new_host = fabric.hosts[expansion.hosts[0]]
    assert new_host.ip in fabric.fabric_manager.hosts_by_ip
    UdpEchoServer(new_host, 7)
    newcomer = UdpPinger(src, new_host.ip)
    newcomer.ping()
    sim.run(until=sim.now + 0.5)
    assert newcomer.answered == 1

    # The severed pair re-converged around the splice (via jelly-12 or
    # any other shortest path on the rewired graph).
    pinger.ping()
    sim.run(until=sim.now + 0.5)
    assert pinger.answered == 2

    oracle.check_now()
    assert oracle.violations == []
    oracle.close()


def test_expansion_rejects_odd_degree():
    # The campaign-default jellyfish (k=4 -> degree 3) cannot keep
    # regularity across a single-node splice; the live expansion must
    # refuse loudly rather than corrupt the fabric.
    from repro.topology.scheme import scheme_for_backend

    sim = Simulator(seed=12)
    fabric = build_portland_fabric(
        sim, scheme=scheme_for_backend("jellyfish", k=4))
    fabric.start()
    fabric.run_until_located()
    switches_before = len(fabric.switches)
    try:
        expand_jellyfish_live(fabric, seed=0)
        raise AssertionError("odd-degree expansion should raise")
    except TopologyError:
        pass
    assert len(fabric.switches) == switches_before


def test_campaign_expand_step_recovers():
    # Scenario seed 0 with this config draws two expand steps followed
    # by a triple link failure (pinned by the seeded op sequence): the
    # oracle must stay clean through splices and faults combined.
    config = CampaignConfig(backend="jellyfish", ks=(5,), steps=3,
                            ops=("fail", "fail", "fail-switch", "recover",
                                 "migrate", "expand"),
                            probe_pairs=2,
                            fabric=PortlandConfig(flow_mode=True))
    result = run_scenario(0, config)
    expand_steps = [s for s in result.steps if s.startswith("expand +")]
    assert len(expand_steps) == 2
    assert result.ok, result.violations
    assert result.flow_paths > 0


def test_live_expansion_leaves_no_stale_fault():
    # A spliced link's endpoints report it failed and, when their freed
    # ports hear the new switch, recovered: the recovery must name the
    # link that failed, not the new neighbour, or the fabric manager
    # keeps the dead link in its fault matrix and both endpoints keep
    # their old partner blocked for good.
    sim = Simulator(seed=11)
    fabric = converged_even_degree_fabric(sim)
    expand_jellyfish_live(fabric, seed=EXPAND_SEED)
    sim.run(until=sim.now + 3.0)
    assert fabric.fabric_manager.fault_matrix == set()
    assert {name: agent.fm_blocked_neighbors
            for name, agent in fabric.agents.items()
            if agent.fm_blocked_neighbors} == {}
