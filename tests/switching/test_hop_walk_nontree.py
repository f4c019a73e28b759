"""Decision-layer hop walker on a non-tree (Jellyfish) fabric.

The walker predates the topology abstraction and was only ever
exercised on fat trees, where ECMP groups sit at fixed uplink ports and
paths have a known shape. On a random regular graph the ``route:``
entries hash over arbitrary neighbor sets, so two regressions matter:

* tie-breaking must be *deterministic per flow hash* — the walker must
  pick exactly the ``SelectByHash`` member the live data path would
  (``flow_hash(frame) % len(ports)``), every time;
* a link failed mid-path with ``require_live=True`` must dead-end *at
  the transmitting port* — hops before the dead wire are reported, the
  dead hop itself is not, and no phantom delivery is claimed.
"""

import pytest

from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.sim import Simulator
from repro.switching.flow_table import SelectByHash, flow_hash
from repro.switching.hop_walk import walk_decision_path
from repro.topology import build_portland_fabric
from repro.topology.jellyfish import build_jellyfish
from repro.topology.scheme import JellyfishScheme


@pytest.fixture(scope="module")
def jellyfish_fabric():
    scheme = JellyfishScheme(build_jellyfish(
        8, 3, hosts_per_switch=1, seed=42, spare_host_ports=1))
    fabric = build_portland_fabric(Simulator(seed=9), scheme=scheme)
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def _frame_toward(fabric, dst_host):
    record = fabric.fabric_manager.hosts_by_ip[dst_host.ip]
    return EthernetFrame(record.pmac, fabric.host_list()[0].mac,
                         ETHERTYPE_IPV4, None)


def _walk_from(fabric, src_host, frame, require_live=False):
    attach = src_host.nic.peer
    return walk_decision_path(attach.node, attach.index, frame,
                              require_live=require_live)


def _pair_at_distance(fabric, hops_wanted):
    scheme = fabric.scheme
    by_edge = {spec.edge_switch: spec.name for spec in fabric.tree.hosts}
    for (src, dst), distance in sorted(
            (pair, scheme._dist[pair[0]][pair[1]])
            for pair in scheme._next_hops):
        if distance == hops_wanted:
            return fabric.hosts[by_edge[src]], fabric.hosts[by_edge[dst]]
    raise AssertionError(f"no pair at distance {hops_wanted}")


def test_walk_delivers_and_breaks_ties_by_flow_hash(jellyfish_fabric):
    fabric = jellyfish_fabric
    hosts = fabric.host_list()
    ecmp_checked = 0
    for src in hosts:
        for dst in hosts:
            if src is dst:
                continue
            frame = _frame_toward(fabric, dst)
            hops, final = _walk_from(fabric, src, frame)
            assert final is not None, f"{src.name}->{dst.name} dead-ended"
            assert final.node is dst
            # Re-walk: byte-identical traversal, pure query.
            again, _final = _walk_from(fabric, src, frame)
            assert ([(h.node.name, h.out_port.index) for h in hops]
                    == [(h.node.name, h.out_port.index) for h in again])
            # Every hash-selected hop picked the member the modulo rule
            # demands — no positional or iteration-order tie-breaking.
            for hop in hops:
                for action in hop.entry.actions:
                    if isinstance(action, SelectByHash) and action.ports:
                        expected = action.ports[
                            flow_hash(frame) % len(action.ports)]
                        assert hop.out_port.index == expected
                        if len(action.ports) > 1:
                            ecmp_checked += 1
    assert ecmp_checked > 0, "no multi-member ECMP group was ever walked"


def test_dead_link_mid_walk_drops_at_tx_port(jellyfish_fabric):
    fabric = jellyfish_fabric
    src, dst = _pair_at_distance(fabric, 2)
    frame = _frame_toward(fabric, dst)
    hops, final = _walk_from(fabric, src, frame)
    assert final is not None and len(hops) == 3  # src edge, middle, dst edge

    dead = hops[1].out_port.link
    dead.fail()
    try:
        # No sim time passes: tables still point at the dead wire, which
        # is exactly the window the walker must not claim delivery in.
        truncated, outcome = _walk_from(fabric, src, frame,
                                        require_live=True)
        assert outcome is None
        assert [(h.node.name, h.out_port.index) for h in truncated] \
            == [(h.node.name, h.out_port.index) for h in hops[:1]]
        # Without the liveness requirement the pure table query is
        # unchanged — liveness is the caller's opt-in, not a side effect.
        full, final_again = _walk_from(fabric, src, frame)
        assert final_again is final
        assert len(full) == len(hops)
    finally:
        dead.recover()
