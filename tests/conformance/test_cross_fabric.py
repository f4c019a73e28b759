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
# Compiled-path (cut-through) trace equivalence


def _traced_run(fabric_backend, path_cache_entries: int):
    fabric = fabric_backend.converged(
        seed=11, config=PortlandConfig(path_cache_entries=path_cache_entries))
    sim = fabric.sim
    hosts = fabric.host_list()
    pairs = [(hosts[0], hosts[-1], 7300), (hosts[1], hosts[-2], 7301)]
    collector = TraceCollector(sim.trace, "verify.hop")
    senders = []
    for stagger, (src, dst, port) in enumerate(pairs):
        UdpStreamReceiver(dst, port)
        sender = UdpStreamSender(src, dst.ip, port, rate_pps=200.0)
        # Staggered starts keep flows off the wire simultaneously, so
        # the interpreted run sees no queueing cut-through would skip.
        sender.start(first_delay=0.0013 * stagger)
        senders.append(sender)
    sim.run(until=sim.now + 0.2)
    for sender in senders:
        sender.stop()
    sim.run(until=sim.now + 0.01)
    collector.close()
    return fabric, collector.records


def _trajectories(records):
    by_packet = {}
    for record in records:
        ip = record.detail["payload"]
        udp = getattr(ip, "payload", None)
        app = getattr(udp, "payload", None)
        if not isinstance(app, AppData) or not app.flow_id:
            continue  # control traffic (ARP/LDP punts)
        by_packet.setdefault((app.flow_id, app.seq), []).append(
            (record.time, record.source, record.detail["entry"],
             record.detail["in_port"], record.detail["dst"],
             record.detail["ethertype"]))
    return by_packet


def test_compiled_paths_trace_identically(fabric_backend):
    """With the path cache on, every datagram's hop-by-hop trajectory —
    entries, ports, timestamps — matches the interpreted run exactly."""
    _f, interpreted_records = _traced_run(fabric_backend, 0)
    compiled_fabric, compiled_records = _traced_run(fabric_backend, 4096)

    stats = compiled_fabric.path_cache_stats()
    assert stats["launches"] > 50, "cut-through never engaged"
    assert stats["dropped_in_flight"] == 0

    interpreted = _trajectories(interpreted_records)
    compiled = _trajectories(compiled_records)
    assert interpreted, "no data-frame hops traced"
    assert interpreted.keys() == compiled.keys()
    for key in interpreted:
        assert compiled[key] == interpreted[key], (
            f"datagram {key}: compiled trajectory diverged\n"
            f"  interpreted: {interpreted[key]}\n"
            f"  compiled:    {compiled[key]}")


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
