"""Cross-fabric conformance: the invariant suite, the installed-table
walker, compiled-path trace equivalence, and fluid/frame agreement must
all hold on every topology backend through the *same* code paths.

Every test body below is backend-agnostic — the ``fabric_backend``
fixture (see ``conftest.py``) swaps the fabric underneath it. A test
that can only pass on a fat tree would be a leak in the
:class:`~repro.topology.scheme.TopologyScheme` abstraction.
"""

from repro.host.apps import UdpStreamReceiver, UdpStreamSender
from repro.net.packet import AppData
from repro.portland.config import PortlandConfig
from repro.sim import TraceCollector
from repro.verify.oracle import InvariantOracle

RATE_PPS = 2000.0
PAYLOAD = 1000
WINDOW_S = 0.25


# ----------------------------------------------------------------------
# Oracle invariants + installed-table walker


def test_healthy_fabric_passes_all_invariants(fabric_backend):
    """PMAC consistency, override soundness, and the all-pairs table
    walk are clean on a freshly converged fabric."""
    fabric = fabric_backend.converged(seed=3)
    with InvariantOracle(fabric, track_hops=False) as oracle:
        assert oracle.check_now() == []


def test_fault_then_recovery_keeps_invariants(fabric_backend):
    """Every single-link failure the scheme offers, one at a time: it
    must not strand the walker (reroute or provably unreachable), and
    its recovery must retract every override."""
    fabric = fabric_backend.converged(seed=5)
    sim = fabric.sim
    candidates = fabric.scheme.fault_candidate_links()
    assert candidates, "scheme offered no faultable links"
    with InvariantOracle(fabric, track_hops=False) as oracle:
        for pair in candidates:
            link = fabric.link_between(*pair)
            link.fail()
            sim.run(until=sim.now + 0.6)
            assert oracle.check_now() == [], f"{pair} failed"
            link.recover()
            sim.run(until=sim.now + 0.6)
            assert oracle.check_now() == [], f"{pair} recovered"
            leftover = {name: dict(agent._fault_overrides)
                        for name, agent in fabric.agents.items()
                        if agent._fault_overrides}
            assert not leftover, f"overrides survived {pair}: {leftover}"


def test_enumerated_paths_follow_the_wiring(fabric_backend):
    """The scheme's path oracle only emits real, loop-free switch paths."""
    fabric = fabric_backend.build(seed=3)
    scheme = fabric.scheme
    edges = fabric.tree.edge_names
    adjacent = {(w.node_a, w.node_b) for w in fabric.tree.switch_wires}
    adjacent |= {(b, a) for a, b in adjacent}
    src, dst = edges[0], edges[-1]
    ecmp = scheme.enumerate_paths(src, dst)
    diverse = scheme.enumerate_paths(src, dst, limit=4)
    assert ecmp and diverse
    shortest = len(ecmp[0])
    for path in ecmp + diverse:
        assert path[0] == src and path[-1] == dst
        assert len(set(path)) == len(path), f"loop in {path}"
        assert all(pair in adjacent for pair in zip(path, path[1:])), path
    assert all(len(path) == shortest for path in ecmp)
    assert all(len(path) >= shortest for path in diverse)


# ----------------------------------------------------------------------
# Compiled-path trace equivalence


def _traced_frames(fabric_backend, pairs):
    """Sender and the set of per-datagram hop trajectories (switch,
    entry, in port) of a low-rate UDP stream per ``pairs`` entry, each
    sent hop by hop on a frame-mode fabric."""
    fabric = fabric_backend.converged(seed=11)
    sim = fabric.sim
    hosts = fabric.host_list()
    collector = TraceCollector(sim.trace, "verify.hop")
    senders = []
    for src, dst, port in pairs:
        UdpStreamReceiver(hosts[dst], port)
        sender = UdpStreamSender(hosts[src], hosts[dst].ip, port,
                                 rate_pps=200.0)
        sender.start()
        senders.append(sender)
    sim.run(until=sim.now + 0.2)
    for sender in senders:
        sender.stop()
    sim.run(until=sim.now + 0.01)
    collector.close()
    by_packet = {}
    for record in collector.records:
        app = getattr(getattr(record.detail["payload"], "payload", None),
                      "payload", None)
        if isinstance(app, AppData) and app.flow_id:
            by_packet.setdefault((app.flow_id, app.seq), []).append(
                (record.source, record.detail["entry"],
                 record.detail["in_port"]))
    trajectories = {sender.flow_id: set() for sender in senders}
    for (flow_id, _seq), hops in by_packet.items():
        trajectories[flow_id].add(tuple(hops))
    return [(sender, trajectories[sender.flow_id]) for sender in senders]


def test_compiled_paths_trace_identically(fabric_backend):
    """The path the flow engine compiles for a 5-tuple is, switch by
    switch, entry by entry and port by port, the one every datagram of
    that 5-tuple takes when forwarded hop by hop."""
    pairs = ((0, -1, 7300), (1, -2, 7301))
    traced = _traced_frames(fabric_backend, pairs)
    fluid_fab = fabric_backend.converged(
        seed=11, config=PortlandConfig(flow_mode=True))
    hosts = fluid_fab.host_list()
    engine = fluid_fab.flow_engine
    for (src, dst, port), (sender, trajectories) in zip(pairs, traced):
        assert len(trajectories) == 1, (
            f"{sender.flow_id}: datagrams took {len(trajectories)} paths")
        flow = engine.start_flow(hosts[src], hosts[dst].ip, demand_bps=1e6,
                                 sport=sender.socket.port, dport=port,
                                 payload_bytes=sender.payload_bytes)
        fluid_fab.sim.run(until=fluid_fab.sim.now + 0.01)
        engine.settle_now()
        assert flow._path.compiled is not None
        assert trajectories == {flow._path.hop_records}


# ----------------------------------------------------------------------
# Fluid (flow-level) / frame agreement


def test_fluid_flow_rate_agrees_with_frame_path(fabric_backend):
    """A fluid flow's allocated rate matches what a real UDP stream's
    receiver measures on the same pair (same seed, same 5-tuple)."""
    frame_fab = fabric_backend.converged(seed=17)
    fluid_fab = fabric_backend.converged(
        seed=17, config=PortlandConfig(flow_mode=True))

    hosts = frame_fab.host_list()
    src, dst = hosts[0], hosts[-1]
    receiver = UdpStreamReceiver(dst, 6100)
    sender = UdpStreamSender(src, dst.ip, 6100,
                             rate_pps=RATE_PPS, payload_bytes=PAYLOAD)
    sender.start()
    t0 = frame_fab.sim.now
    frame_fab.sim.run(until=t0 + WINDOW_S)
    frame_goodput = len(receiver.arrivals) * PAYLOAD * 8 / WINDOW_S
    assert frame_goodput > 0

    fluid_hosts = fluid_fab.host_list()
    flow = fluid_fab.flow_engine.start_flow(
        fluid_hosts[0], fluid_hosts[-1].ip,
        demand_bps=RATE_PPS * PAYLOAD * 8,
        sport=sender.socket.port, dport=6100, payload_bytes=PAYLOAD)
    t0 = fluid_fab.sim.now
    fluid_fab.sim.run(until=t0 + WINDOW_S)
    fluid_fab.flow_engine.settle_now()
    fluid_rate = flow.average_rate_bps(fluid_fab.sim.now)
    assert abs(fluid_rate - frame_goodput) <= 0.05 * frame_goodput, (
        f"{fabric_backend.name}: fluid {fluid_rate:.0f} bps vs frame "
        f"{frame_goodput:.0f} bps")
