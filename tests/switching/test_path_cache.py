"""Unit tests for the fabric-level path cache the flow engine resolves
through.

These drive :class:`~repro.switching.path_cache.PathCache` directly on a
converged flow-mode fabric: compilation, negative verdicts, FIFO
eviction, and both invalidation triggers (a table change, a link
carrier change — including the link a refused compile stopped at).
"""

import pytest

from repro.net import AppData, EthernetFrame, mac
from repro.net.ethernet import ETHERTYPE_ARP
from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.switching.flow_table import Match, SetEthSrc, decision_key
from repro.switching.hop_walk import walk_decision_path
from repro.switching.path_cache import PathCache
from repro.topology import build_portland_fabric
from repro.workloads.replay import all_to_all_frames, decision_signature


def _converged(seed=1234, k=4):
    sim = Simulator(seed=seed)
    fabric = build_portland_fabric(
        sim, k=k, config=PortlandConfig(flow_mode=True))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


@pytest.fixture
def pc_fabric():
    return _converged()


def _cross_pod_item(fabric):
    """A workload triple whose path crosses the core (>= 4 hops)."""
    for node, in_index, frame in all_to_all_frames(fabric, flows_per_pair=1):
        if len(decision_signature(node, in_index, frame)) >= 4:
            return node, in_index, frame
    raise AssertionError("no cross-pod pair in the workload")


def test_compile_records_full_path_and_rewrites(pc_fabric):
    cache = pc_fabric.path_cache
    node, in_index, frame = _cross_pod_item(pc_fabric)
    path = cache.resolve(node, frame, in_index)
    assert path is not None and path.compiled
    assert [(h.node.name, h.out_port.index) for h in path.hops] == list(
        decision_signature(node, in_index, frame))
    # edge -> agg -> core -> agg -> edge: 5 switches, 5 links, host egress.
    assert len(path.hops) == len(path.links) == len(path.switches) == 5
    assert not isinstance(path.final_port.node, type(node))
    # The egress edge rewrites PMAC back to the destination's real MAC.
    egress_dst = path.hops[-1].set_dst
    assert egress_dst is not None and egress_dst != frame.dst
    # Second resolve is a pure dict hit.
    before = cache.stats()
    assert cache.resolve(node, frame, in_index) is path
    assert cache.stats()["hits"] == before["hits"] + 1
    assert cache.stats()["compiles"] == before["compiles"]


def test_uncompilable_frame_gets_negative_verdict(pc_fabric):
    cache = pc_fabric.path_cache
    edge = pc_fabric.switches["edge-p0-s0"]
    hosts = pc_fabric.host_list()
    # An ARP broadcast punts to the agent: never compiled.
    arp = EthernetFrame(mac("ff:ff:ff:ff:ff:ff"), hosts[0].mac,
                        ETHERTYPE_ARP, AppData(28))
    assert cache.resolve(edge, arp, 0) is None
    assert cache.compile_failures == 1
    # The sentinel is cached: the retry is a cheap negative hit.
    before = cache.stats()
    assert cache.resolve(edge, arp, 0) is None
    after = cache.stats()
    assert after["no_path_hits"] == before["no_path_hits"] + 1
    assert after["compiles"] == before["compiles"]


def _taint_rx_tap(fabric, core, hop):
    core.rx_tap = lambda frame, port: None


def _taint_unsafe_table(fabric, core, hop):
    core.table.install(Match(in_port=63, ethertype=0x86DD), (), priority=1,
                       name="not-key-only")


def _taint_stage_one_match(fabric, core, hop):
    core.rewrite_table.install(Match(), (SetEthSrc(mac("02:00:00:00:00:99")),),
                               priority=1, name="mid-path-rewrite")


def _taint_lossy_link(fabric, core, hop):
    hop.out_port.link.loss_rate = 0.01


def _taint_dead_link(fabric, core, hop):
    hop.out_port.link.fail()
    return hop.out_port.link.recover


@pytest.mark.parametrize("taint, core_is_asked", [
    (_taint_rx_tap, False),
    (_taint_unsafe_table, False),
    (_taint_stage_one_match, False),
    (_taint_lossy_link, True),
    (_taint_dead_link, True),
])
def test_refused_compile_warms_only_the_switches_it_asked(taint,
                                                          core_is_asked):
    """What makes a hop impure is checked before the switch is asked for
    its verdict, what makes its *link* unusable after: a refusal at the
    core leaves the decision caches of the two switches before it warm,
    the core's only when the verdict was needed, and nothing beyond. A
    taint that returns its cure is one the fabric hears lifted: the
    cure must retire the verdict and let the key compile."""
    fabric = _converged()
    cache = fabric.path_cache
    node, in_index, frame = _cross_pod_item(fabric)
    walked, _final = walk_decision_path(node, in_index, frame)
    assert len(walked) == 5
    for switch in fabric.switches.values():
        switch.table.plans.clear()
    core = walked[2].node
    cure = taint(fabric, core, walked[2])
    assert cache.resolve(node, frame, in_index) is None
    assert cache.compile_failures == 1
    key = decision_key(frame)
    warm = {name for name, switch in fabric.switches.items()
            if key in switch.table.plans}
    asked = walked[:3] if core_is_asked else walked[:2]
    assert warm == {hop.node.name for hop in asked}
    # The verdict is registered against the switches entered, the core
    # included: lifting the taint there must retire it.
    negative = cache._tables[node][(in_index, key)]
    assert [s.name for s in negative.switches] == [
        hop.node.name for hop in walked[:3]]
    if cure is not None:
        # A dead link is read by the walk that stops at it, so its
        # recovery is heard by the verdict that link refused.
        assert negative.links == tuple(hop.link for hop in walked[:3])
        cure()
        assert not negative.alive
        path = cache.resolve(node, frame, in_index)
        assert path is not None and len(path.hops) == 5


def test_fifo_eviction_bounds_the_table():
    fabric = _converged()
    cache = PathCache(fabric.sim, capacity=2)
    workload = all_to_all_frames(fabric, flows_per_pair=1)
    # All flows entering one ingress switch.
    node = workload[0][0]
    mine = [item for item in workload if item[0] is node]
    assert len(mine) >= 3
    for ingress, in_index, frame in mine:
        cache.resolve(ingress, frame, in_index)
    assert len(cache._tables[node]) <= 2
    assert cache.evictions >= len(mine) - 2


def test_table_change_on_any_hop_invalidates(pc_fabric):
    cache = pc_fabric.path_cache
    node, in_index, frame = _cross_pod_item(pc_fabric)
    path = cache.resolve(node, frame, in_index)
    mid = path.switches[2]  # the core switch
    # Any mutation of a traversed switch's table kills the path.
    mid.table.install(Match(ethertype=0x86DD), (), priority=1, name="noop")
    assert not path.alive
    assert path.key not in cache._tables[node]
    assert cache.invalidated >= 1


def test_link_state_change_invalidates_and_recompiles(pc_fabric):
    cache = pc_fabric.path_cache
    node, in_index, frame = _cross_pod_item(pc_fabric)
    path = cache.resolve(node, frame, in_index)
    link = path.links[2]
    link.fail()
    assert not path.alive
    link.recover()  # also a carrier change: nothing stale to kill, but
    before = cache.compiles  # the key must recompile on next resolve
    again = cache.resolve(node, frame, in_index)
    assert again is not None and again is not path
    assert cache.compiles == before + 1


def test_disabled_by_default(fabric):
    # A frame-mode fabric has no path cache: its frames are forwarded hop
    # by hop, and only the flow engine resolves paths.
    assert fabric.path_cache is None
    assert fabric.path_cache_stats() == {}
