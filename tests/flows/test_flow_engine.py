"""Unit/behavioural tests for the fluid flow engine.

Each test drives a converged k=4 flow-mode fabric and checks one piece
of the fluid contract: fair-share rates, demand caps, exact completion
accounting, frame-equivalent counter charging, rerouting on faults, and
stall/resume across a partition.
"""

import math

import pytest

from repro.portland.config import PortlandConfig
from repro.sim import Simulator
from repro.topology import build_portland_fabric
from repro.topology.builder import LinkParams

GBPS = 1e9


@pytest.fixture
def flow_fabric():
    sim = Simulator(seed=77)
    fabric = build_portland_fabric(sim, k=4,
                                   config=PortlandConfig(flow_mode=True))
    fabric.start()
    fabric.run_until_located()
    fabric.announce_hosts()
    fabric.run_until_registered()
    return fabric


def _inter_pod_pair(fabric):
    hosts = fabric.host_list()
    src = hosts[0]
    dst = next(h for h in hosts if h.name.split("-")[1] != src.name.split("-")[1])
    return src, dst


def _settle(fabric, dt=0.01):
    fabric.sim.run(until=fabric.sim.now + dt)
    fabric.flow_engine.settle_now()


def test_flow_mode_forces_path_cache_on():
    sim = Simulator(seed=1)
    fabric = build_portland_fabric(sim, k=4,
                                   config=PortlandConfig(flow_mode=True))
    assert fabric.flow_engine is not None
    assert fabric.path_cache is not None


def test_single_greedy_flow_takes_line_rate(flow_fabric):
    src, dst = _inter_pod_pair(flow_fabric)
    engine = flow_fabric.flow_engine
    flow = engine.start_flow(src, dst.ip)
    _settle(flow_fabric)
    # Payload (goodput) rate = link rate divided by the wire blow-up.
    expected = GBPS / flow.gross_per_payload
    assert flow.rate_bps == pytest.approx(expected)
    assert flow.transferred_bytes > 0
    assert not flow.stalled


def test_two_flows_share_their_common_bottleneck(flow_fabric):
    hosts = flow_fabric.host_list()
    src = hosts[0]
    engine = flow_fabric.flow_engine
    # Same source host: the host->edge ingress link is the bottleneck.
    f1 = engine.start_flow(src, hosts[2].ip, dport=7001)
    f2 = engine.start_flow(src, hosts[3].ip, dport=7002)
    _settle(flow_fabric)
    expected = GBPS / f1.gross_per_payload / 2
    assert f1.rate_bps == pytest.approx(expected)
    assert f2.rate_bps == pytest.approx(expected)


def test_demand_cap_leaves_headroom_to_greedy_flow(flow_fabric):
    hosts = flow_fabric.host_list()
    src = hosts[0]
    engine = flow_fabric.flow_engine
    capped = engine.start_flow(src, hosts[2].ip, demand_bps=100e6, dport=7001)
    greedy = engine.start_flow(src, hosts[3].ip, dport=7002)
    _settle(flow_fabric)
    assert capped.rate_bps == pytest.approx(100e6)
    # The greedy flow takes everything the capped one left behind.
    line = GBPS / greedy.gross_per_payload
    assert greedy.rate_bps == pytest.approx(
        line - 100e6, rel=1e-6)


def test_finite_flow_completes_exactly(flow_fabric):
    src, dst = _inter_pod_pair(flow_fabric)
    engine = flow_fabric.flow_engine
    done = []
    flow = engine.start_flow(src, dst.ip, size_bytes=1_000_000,
                             on_complete=done.append)
    flow_fabric.sim.run(until=flow_fabric.sim.now + 0.1)
    assert done == [flow]
    assert flow.completed_at is not None
    assert flow.transferred_bytes == 1_000_000
    # TCP-modelled transfer: handshake setup, then a constant-rate
    # line-rate transfer (the initial window's rate bound exceeds line
    # rate on these short paths), then the FIN drain tail.
    line = GBPS / flow.gross_per_payload
    assert flow.tcp is not None
    assert flow.fct == pytest.approx(
        flow.tcp.setup_s + 1_000_000 * 8 / line + flow.tcp.tail_s)
    assert flow not in engine.flows and flow in engine.finished
    assert engine.stats()["flows_completed"] == 1


def test_fluid_charging_matches_frame_accounting(flow_fabric):
    src, dst = _inter_pod_pair(flow_fabric)
    engine = flow_fabric.flow_engine
    nic = src.nic
    base_frames = nic.counters.tx_frames
    base_bytes = nic.counters.tx_bytes
    flow = engine.start_flow(src, dst.ip, size_bytes=500_000,
                             payload_bytes=1000)
    flow_fabric.sim.run(until=flow_fabric.sim.now + 0.1)
    frames = math.ceil(500_000 / 1000)
    assert flow.total_frames() == frames
    # The ingress port saw exactly the frames the frame path would send
    # (plus any ARP noise the fluid path never generates).
    assert nic.counters.tx_frames - base_frames == frames
    assert (nic.counters.tx_bytes - base_bytes
            == frames * flow.frame_wire_bytes)


def test_stop_flow_keeps_partial_transfer(flow_fabric):
    src, dst = _inter_pod_pair(flow_fabric)
    engine = flow_fabric.flow_engine
    flow = engine.start_flow(src, dst.ip)  # open-ended
    _settle(flow_fabric)
    moved = flow.transferred_bytes
    assert moved > 0
    engine.stop_flow(flow)
    assert flow.completed_at is not None
    assert flow.transferred_bytes == pytest.approx(moved)
    assert flow.rate_bps == 0.0
    _settle(flow_fabric)
    assert flow.transferred_bytes == pytest.approx(moved)


def test_flow_reroutes_around_failed_link(flow_fabric):
    src, dst = _inter_pod_pair(flow_fabric)
    engine = flow_fabric.flow_engine
    flow = engine.start_flow(src, dst.ip)
    _settle(flow_fabric)
    assert flow.reroutes == 0
    # Kill a switch-switch link on the pinned path (skip the ingress
    # host link — that one has no alternative).
    link = flow._path.segments[1][0]
    link.fail()
    _settle(flow_fabric)
    assert flow.reroutes == 1
    assert not flow.stalled
    assert link not in [seg_link for seg_link, _ in flow._path.segments]
    before = flow.transferred_bytes
    _settle(flow_fabric)
    assert flow.transferred_bytes > before


def test_partition_stalls_then_recovery_resumes(flow_fabric):
    src, dst = _inter_pod_pair(flow_fabric)
    engine = flow_fabric.flow_engine
    flow = engine.start_flow(src, dst.ip)
    _settle(flow_fabric)
    # Cut every uplink of the destination edge switch: the pod-external
    # source has no path at all.
    edge_port = dst.nic.link.other_end(dst.nic)
    uplinks = [
        port.link for port in edge_port.node.ports
        if port.link is not None
        and port.link.other_end(port).node.name.startswith("agg")
    ]
    assert len(uplinks) == 2
    for link in uplinks:
        link.fail()
    _settle(flow_fabric)
    assert flow.stalled
    assert flow.rate_bps == 0.0
    stalled_bytes = flow.transferred_bytes
    _settle(flow_fabric, dt=0.05)
    assert flow.transferred_bytes == pytest.approx(stalled_bytes)
    assert engine.stats()["flows_stalled"] == 1
    uplinks[0].recover()
    # The retry timer re-resolves within one interval.
    _settle(flow_fabric, dt=3 * engine.retry_interval_s)
    assert not flow.stalled
    assert flow.rate_bps > 0
    assert flow.transferred_bytes > stalled_bytes
    assert engine.stats()["stall_events"] >= 1


def test_rate_log_records_outage_span(flow_fabric):
    src, dst = _inter_pod_pair(flow_fabric)
    engine = flow_fabric.flow_engine
    flow = engine.start_flow(src, dst.ip)
    _settle(flow_fabric)
    edge_port = dst.nic.link.other_end(dst.nic)
    uplinks = [
        port.link for port in edge_port.node.ports
        if port.link is not None
        and port.link.other_end(port).node.name.startswith("agg")
    ]
    for link in uplinks:
        link.fail()
    _settle(flow_fabric)
    for link in uplinks:
        link.recover()
    _settle(flow_fabric, dt=3 * engine.retry_interval_s)
    rates = [rate for _t, rate in flow.rate_log]
    # start -> up, outage -> 0, recovery -> up again.
    assert rates[0] > 0
    assert 0.0 in rates
    assert rates[-1] > 0


def test_flow_recompiles_after_a_flap_shorter_than_ldp_can_see():
    """A silent 1 ms cut of the flow's uplink is over before LDP misses
    a keepalive, so no table changes: the link's recovery alone has to
    retire the refused compile that stopped at it. Otherwise the flow
    stays interpreted and volatile for the rest of the run."""
    sim = Simulator(seed=3)
    fabric = build_portland_fabric(sim, k=4,
                                   config=PortlandConfig(flow_mode=True),
                                   link_params=LinkParams(carrier_detect=False))
    fabric.bring_up()
    engine = fabric.flow_engine
    hosts = {host.name: host for host in fabric.host_list()}
    flow = engine.start_flow(hosts["host-p0-e0-0"], hosts["host-p2-e0-0"].ip,
                             demand_bps=50e6)
    _settle(fabric)
    uplink = flow._path.segments[1][0]
    assert uplink.name == "edge-p0-s0[2]<->agg-p0-s0[0]"
    assert flow._path.compiled is not None
    uplink.fail()
    _settle(fabric, dt=0.001)
    assert flow._path is None or flow._path.compiled is None
    uplink.recover()
    _settle(fabric, dt=0.2)
    assert flow._path.compiled is not None
    assert uplink in [link for link, _port in flow._path.segments]
    assert not engine._unstable
    assert fabric.path_cache.no_path_hits <= 1


# ----------------------------------------------------------------------
# What the next refill sees: a path's capacity changed by a port, a
# one-way failure or a hybrid frame load. Each pins the outcome the
# refill after the change reached when the engine derived every
# direction's capacity afresh at every refill.

#: ``engine.stats()`` of one greedy inter-pod flow settled for 10 ms.
_STEADY = {"flows_started": 1, "flows_completed": 0, "flows_active": 1,
           "flows_stalled": 0, "recomputes": 2, "flows_refilled": 2,
           "reresolutions": 1, "stall_events": 0, "bottleneck_events": 1,
           "tcp_cuts": 1, "epoch_ticks": 0}


def _steady_greedy_flow(fabric):
    src, dst = _inter_pod_pair(fabric)
    engine = fabric.flow_engine
    flow = engine.start_flow(src, dst.ip, dport=7001)
    fabric.sim.run(until=fabric.sim.now + 0.01)
    assert flow.rate_bps == GBPS / flow.gross_per_payload
    return engine, flow


@pytest.mark.parametrize("end", ["tx", "rx"])
def test_a_disabled_port_drops_the_path_at_the_next_refill(flow_fabric, end):
    """No carrier event and no invalidation: the refill a second flow
    from the same host starts reads the dead direction, drops the first
    flow's path and leaves it to the retry tick."""
    engine, flow = _steady_greedy_flow(flow_fabric)
    assert engine.stats() == _STEADY
    link, port = flow._path.segments[1]
    (port if end == "tx" else link.other_end(port)).enabled = False
    src = flow.src
    local = next(h for h in flow_fabric.host_list()
                 if h is not src and h.name[:-1] == src.name[:-1])
    other = engine.start_flow(src, local.ip, dport=7002)
    sim = flow_fabric.sim
    sim.run(until=sim.now)
    assert flow.rate_bps == 0.0 and flow._path is None
    assert flow._path_sig == () and flow in engine._unstable
    assert other.rate_bps == 0.0  # its handshake is in flight
    assert engine.stats() == {**_STEADY, "flows_started": 2,
                              "flows_active": 2, "flows_stalled": 1,
                              "recomputes": 3, "flows_refilled": 4,
                              "reresolutions": 2}
    # The retry re-resolves the same compiled path (nothing retired
    # it), and the refill drops it again.
    sim.run(until=sim.now + engine.retry_interval_s)
    assert flow.rate_bps == 0.0 and flow._path is None and flow.reroutes == 1
    assert other.rate_bps == GBPS / other.gross_per_payload
    assert engine.stats() == {**_STEADY, "flows_started": 2,
                              "flows_active": 2, "flows_stalled": 1,
                              "recomputes": 4, "flows_refilled": 6,
                              "reresolutions": 3, "bottleneck_events": 2,
                              "tcp_cuts": 2}


def test_a_one_way_failure_stalls_the_flow_at_the_next_refill(flow_fabric):
    """``fail_direction`` retires the compiled path; the tables still
    point the flow into the dead direction, so it stalls."""
    engine, flow = _steady_greedy_flow(flow_fabric)
    link, port = flow._path.segments[2]
    link.fail_direction(port)
    sim = flow_fabric.sim
    sim.run(until=sim.now)
    assert flow.rate_bps == 0.0 and flow._path is None and flow.stalled
    assert engine.stats() == {**_STEADY, "flows_stalled": 1,
                              "recomputes": 3, "flows_refilled": 3,
                              "stall_events": 1}


def test_a_frame_load_move_rerates_the_flow_at_the_next_refill():
    """Hybrid: a fluid flow joins a host link a UDP stream already
    loads. The first epoch's estimate moves past the threshold, and the
    refill it triggers water-fills the capacity net of that load."""
    from repro.flows.engine import HYBRID_EPOCH_S
    from repro.host.apps.udp_stream import UdpStreamSender

    sim = Simulator(seed=71)
    fabric = build_portland_fabric(
        sim, k=4, config=PortlandConfig(flow_mode="hybrid"))
    fabric.bring_up()
    engine = fabric.flow_engine
    hosts = fabric.host_list()
    src = hosts[0]
    UdpStreamSender(src, hosts[5].ip, 9999, rate_pps=200e6 / (500 * 8),
                    payload_bytes=500).start()
    sim.run(until=sim.now + 0.01)
    flow = engine.start_flow(src, hosts[-1].ip, dport=7001)
    sim.run(until=sim.now + 0.001)
    assert flow.rate_bps == GBPS / flow.gross_per_payload
    link, port = flow._path.segments[0]
    refills = len(flow.rate_log)
    sim.run(until=sim.now + HYBRID_EPOCH_S)
    assert link.fluid_capacity_bps(port) == 987332800.0
    assert flow.rate_log[refills:] == [(0.115, 926203377.1106942)]
    assert engine.stats() == {**_STEADY, "recomputes": 3,
                              "flows_refilled": 3, "bottleneck_events": 2,
                              "tcp_cuts": 2, "epoch_ticks": 1}
